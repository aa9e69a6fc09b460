package memctrl

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dramspec"
	"repro/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden")

// trafficConfig is the Table IV channel the randomized traffic tests
// drive: default sizes, a fixed error seed, and a copy error rate high
// enough to exercise the correction flow.
func trafficConfig(repl Replication) Config {
	spec := dramspec.TableII(dramspec.SettingSpec, dramspec.DDR4_3200, 800)
	var fastPtr *dramspec.Config
	if repl.Fast() {
		fast := dramspec.TableII(dramspec.SettingFreqLatMargin, dramspec.DDR4_3200, 800)
		fastPtr = &fast
	}
	cfg := DefaultConfig(repl, spec, fastPtr)
	cfg.Seed = 11
	cfg.CopyErrorRate = 0.001
	return cfg
}

// nodeShapedConfig is trafficConfig scaled the way the node simulator
// scales its channels (ScaleShift 4): a 128-block writeback cache, an
// 800-write Hetero-DMR batch with proportionally shorter transitions,
// and proactive cleaning from a stub LLC. That is the shape whose write
// mode runs against deep queues.
func nodeShapedConfig(repl Replication, seed uint64) Config {
	const shift = 4
	cfg := trafficConfig(repl)
	cfg.WritebackCacheBlocks = 2048 >> shift
	if repl.Fast() {
		cfg.WriteBatch = dramspec.HeteroDMRWriteBatch >> shift
		cfg.FreqSwitchPS = dramspec.FrequencySwitchLatency >> shift
		cfg.SRExitPS = (cfg.Spec.Timing.TRFC + 10*dramspec.Nanosecond) >> shift
	}
	cfg.CleanSource = newStubCleaner(seed)
	return cfg
}

// stubCleaner is a deterministic CleanSource: each call cleans a seeded
// random share of at most half the requested budget (or of limit, when
// that is set and smaller), at random block addresses. The returned
// slice reuses one buffer, as the LLC's does.
type stubCleaner struct {
	rng   *xrand.Rand
	buf   []uint64
	limit int
}

func newStubCleaner(seed uint64) *stubCleaner {
	return &stubCleaner{rng: xrand.New(seed ^ 0xC1EA), buf: make([]uint64, 0, 1024)}
}

func (s *stubCleaner) CleanDirty(max int) []uint64 {
	if s.limit > 0 && s.limit < max {
		max = s.limit
	}
	n := int(s.rng.Uint64n(uint64(max)/2 + 1))
	s.buf = s.buf[:0]
	for i := 0; i < n; i++ {
		s.buf = append(s.buf, s.rng.Uint64n(1<<28)&^63)
	}
	return s.buf
}

// scheduleDigest is the SHA-256 of a channel's Stats and final clock.
func scheduleDigest(c *Channel) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v now=%d", c.Stats(), c.Now())))
	return hex.EncodeToString(sum[:])
}

// TestScheduleGolden pins the controller's scheduling decisions: the
// randomized traffic of poolTraffic, stressTraffic, writeTraffic and the
// row-hit burst stream of driveBatchStream, for
// every replication mode, three seeds each, on both the Table IV channel
// and the node-shaped one (writeback cache, Hetero-DMR write batches
// and proactive cleaning), must land every channel on the recorded
// Stats and clock. Regenerate (only for an intended behaviour change)
// with `go test ./internal/memctrl -run ScheduleGolden -update`.
func TestScheduleGolden(t *testing.T) {
	drivers := []struct {
		name string
		run  func(t *testing.T, c *Channel, seed uint64)
	}{
		{"pool", poolTraffic},
		{"stress", stressTraffic},
		{"writes", func(t *testing.T, c *Channel, seed uint64) { writeTraffic(c, seed); c.Drain() }},
		{"burst", func(t *testing.T, c *Channel, seed uint64) { driveBatchStream(c, seed, 6000) }},
	}
	shapes := []struct {
		name string
		cfg  func(repl Replication, seed uint64) Config
	}{
		{"table4", func(repl Replication, seed uint64) Config {
			cfg := trafficConfig(repl)
			cfg.Seed = seed
			return cfg
		}},
		{"node", func(repl Replication, seed uint64) Config {
			cfg := nodeShapedConfig(repl, seed)
			cfg.Seed = seed
			return cfg
		}},
	}
	var got strings.Builder
	for _, shape := range shapes {
		for _, d := range drivers {
			for _, repl := range []Replication{
				ReplicationNone, ReplicationFMR, ReplicationHeteroDMR, ReplicationHeteroDMRFMR,
			} {
				for seed := uint64(1); seed <= 3; seed++ {
					c := MustNewChannel(shape.cfg(repl, seed))
					d.run(t, c, seed)
					name := fmt.Sprintf("%s %s %s %d", shape.name, d.name, strings.ReplaceAll(repl.String(), " ", "-"), seed)
					for _, v := range c.CheckConservation(name) {
						t.Errorf("%s: violation %s", name, v)
					}
					fmt.Fprintf(&got, "%s %s\n", name, scheduleDigest(c))
				}
			}
		}
	}

	path := filepath.Join("testdata", "schedule.golden")
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
		t.Fatalf("%v (regenerate with go test ./internal/memctrl -run ScheduleGolden -update)", err)
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
