package node

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden")

// goldenDesign is one of the nine memory designs the experiment suite's
// node-level figures run, resolved the way the suite resolves them.
type goldenDesign struct {
	name    string
	repl    memctrl.Replication
	setting dramspec.Setting
	margin  dramspec.DataRate
}

func goldenDesigns() []goldenDesign {
	return []goldenDesign{
		{"spec", memctrl.ReplicationNone, dramspec.SettingSpec, 0},
		{"lat", memctrl.ReplicationNone, dramspec.SettingLatencyMargin, 800},
		{"freq", memctrl.ReplicationNone, dramspec.SettingFrequencyMargin, 800},
		{"freqlat", memctrl.ReplicationNone, dramspec.SettingFreqLatMargin, 800},
		{"fmr", memctrl.ReplicationFMR, dramspec.SettingSpec, 0},
		{"hdmr800", memctrl.ReplicationHeteroDMR, dramspec.SettingSpec, 800},
		{"hdmr600", memctrl.ReplicationHeteroDMR, dramspec.SettingSpec, 600},
		{"hdmrfmr800", memctrl.ReplicationHeteroDMRFMR, dramspec.SettingSpec, 800},
		{"hdmrfmr600", memctrl.ReplicationHeteroDMRFMR, dramspec.SettingSpec, 600},
	}
}

// config builds the quick-length node configuration of one golden cell.
func (d goldenDesign) config(h Hierarchy, seed uint64) Config {
	cfg := Config{
		H:                   h,
		Replication:         d.repl,
		Spec:                dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, d.margin),
		Seed:                seed,
		InstructionsPerCore: 40_000,
		WarmupInstructions:  15_000,
	}
	if d.repl == memctrl.ReplicationNone && d.setting != dramspec.SettingSpec {
		cfg.Spec = dramspec.TableII(d.setting, dramspec.DDR4_3200, d.margin)
	}
	if d.repl.Fast() {
		fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, d.margin)
		cfg.Fast = &fast
	}
	return cfg
}

// resultDigest is the SHA-256 of r's gob encoding: every field, floats by
// their exact bits, and the conservation violations.
func resultDigest(t *testing.T, r Result) string {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestResultGolden pins node.Run's output bits over both hierarchies, the
// nine suite designs, three benchmarks and seeds 1-2 at quick length, with
// seed 2 run under Check. Any change to the core, cache, prefetcher,
// interleaving or memory-controller behaviour shows up here. Regenerate
// (only for an intended output change) with
// `go test ./internal/node -run ResultGolden -update`.
func TestResultGolden(t *testing.T) {
	var got strings.Builder
	for _, h := range Hierarchies() {
		for _, bench := range []string{"hpcg", "graph500", "lulesh"} {
			prof := workload.ByName(bench)
			for seed := uint64(1); seed <= 2; seed++ {
				for _, d := range goldenDesigns() {
					cfg := d.config(h, seed)
					cfg.Check = seed == 2
					res, err := Run(cfg, prof)
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range res.Violations {
						t.Errorf("%s %s seed %d %s: violation %s", h.Name, bench, seed, d.name, v)
					}
					fmt.Fprintf(&got, "%s %s %d %s %s\n", h.Name, bench, seed, d.name, resultDigest(t, res))
				}
			}
		}
	}

	path := filepath.Join("testdata", "results.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/node -run ResultGolden -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("computed %d digest lines, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest drifted:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
