package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

// Each analyzer's fixture package contains both failing cases (lines with
// `// want` expectations) and passing cases (the sanctioned idioms, which
// must produce no diagnostics); analysistest fails on any mismatch in
// either direction.

func TestDetRand(t *testing.T) {
	findings := analysistest.Run(t, analysistest.TestData(), lint.DetRand, "detrand")
	if len(findings) == 0 {
		t.Fatal("detrand fixture produced no findings")
	}
}

// TestDetRandExemptsXrand pins the exemption: a package named xrand is
// the sanctioned RNG implementation and produces no findings at all.
func TestDetRandExemptsXrand(t *testing.T) {
	if findings := analysistest.Run(t, analysistest.TestData(), lint.DetRand, "xrand"); len(findings) != 0 {
		t.Fatalf("xrand package must be exempt, got %v", findings)
	}
}

func TestMapOrder(t *testing.T) {
	findings := analysistest.Run(t, analysistest.TestData(), lint.MapOrder, "maporder")
	if len(findings) == 0 {
		t.Fatal("maporder fixture produced no findings")
	}
}

func TestSharedWrite(t *testing.T) {
	findings := analysistest.Run(t, analysistest.TestData(), lint.SharedWrite, "sharedwrite")
	if len(findings) == 0 {
		t.Fatal("sharedwrite fixture produced no findings")
	}
}

func TestPoolSafe(t *testing.T) {
	findings := analysistest.Run(t, analysistest.TestData(), lint.PoolSafe, "poolsafe")
	if len(findings) == 0 {
		t.Fatal("poolsafe fixture produced no findings")
	}
}

func TestUnitFlow(t *testing.T) {
	findings := analysistest.Run(t, analysistest.TestData(), lint.UnitFlow, "unitflow")
	if len(findings) == 0 {
		t.Fatal("unitflow fixture produced no findings")
	}
}

func TestSeedFlow(t *testing.T) {
	findings := analysistest.Run(t, analysistest.TestData(), lint.SeedFlow, "seedflow")
	if len(findings) == 0 {
		t.Fatal("seedflow fixture produced no findings")
	}
}

func TestFaultSite(t *testing.T) {
	findings := analysistest.Run(t, analysistest.TestData(), lint.FaultSite, "faultsite")
	if len(findings) == 0 {
		t.Fatal("faultsite fixture produced no findings")
	}
}

// TestSuiteComplete pins the suite composition the docs and CI reference.
func TestSuiteComplete(t *testing.T) {
	want := []string{"detrand", "faultsite", "maporder", "poolsafe", "seedflow", "sharedwrite", "unitflow"}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("All() = %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].Name, name)
		}
		if lint.ByName(name) != all[i] {
			t.Errorf("ByName(%s) does not resolve", name)
		}
		if all[i].Doc == "" {
			t.Errorf("%s has no Doc", name)
		}
	}
}
