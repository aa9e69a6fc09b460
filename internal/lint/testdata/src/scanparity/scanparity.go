// Fixture for the scanparity analyzer: every dual-path hook
// (noPool, noBatch) must be referenced from an in-package test, or the
// bypassed path it selects has no differential oracle.
package scanparity

// Config mirrors the shape of the real channel hooks: noBatch selects the
// unbatched path and is exercised by the differential test in
// scanparity_test.go; noPool is a pooling bypass nobody tests.
type Config struct {
	noBatch bool
	noPool  bool // want `dual-path hook noPool has no in-package test reference`
}

// legacyConfig shows the justified suppression for a hook exercised
// outside go test.
type legacyConfig struct {
	//lint:allow scanparity exercised by the external replay harness, not by go test
	noBatch bool
}

func run(c Config) int {
	if c.noBatch {
		return 1
	}
	if c.noPool {
		return 2
	}
	return 0
}

func runLegacy(c legacyConfig) int {
	if c.noBatch {
		return 1
	}
	return 0
}
