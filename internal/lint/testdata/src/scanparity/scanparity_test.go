package scanparity

import "testing"

// TestBatchDifferential is the in-package reference that proves the
// noBatch dual path has a live oracle.
func TestBatchDifferential(t *testing.T) {
	unbatched := run(Config{noBatch: true})
	batched := run(Config{})
	if unbatched == batched {
		t.Fatal("paths indistinguishable")
	}
}
