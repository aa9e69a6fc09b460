package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ablations.golden")

// TestAblationsGolden pins the rendered bytes of the quick ablation
// studies at seeds 1 and 2: the tables exactly as `heterodmr -ablations
// -quick` prints them (each table's String plus a newline) must hash to
// the digests in testdata/ablations.golden. The plan records each of
// its 6 front ends (Hierarchy1 × 6 benchmarks) once. Regenerate the
// digests (only for an intended output change) with
// `go test ./internal/experiments -run AblationsGolden -update`.
func TestAblationsGolden(t *testing.T) {
	var got strings.Builder
	for _, seed := range []uint64{1, 2} {
		s := New(Options{Seed: seed, Quick: true})
		var out strings.Builder
		for _, tab := range s.Run(Ablations()) {
			out.WriteString(tab.String())
			out.WriteString("\n")
		}
		if fe := frontEnds(s, Ablations()); s.Recordings() != fe || fe != 6 {
			t.Errorf("seed %d: %d front-end recordings for %d distinct front ends, want 6 and 6",
				seed, s.Recordings(), fe)
		}
		sum := sha256.Sum256([]byte(out.String()))
		fmt.Fprintf(&got, "quick %d %s\n", seed, hex.EncodeToString(sum[:]))
	}

	path := filepath.Join("testdata", "ablations.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/experiments -run AblationsGolden -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("ablation digests drifted:\n got:\n%s want:\n%s", got.String(), want)
	}
}
