package node

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dramspec"
	"repro/internal/memctrl"
	"repro/internal/obs"
	"repro/internal/workload"
)

// fillDistinct sets every field of a flat int64/uint64 stats struct to a
// distinct non-zero value, so a field-wise helper that skips or
// mis-copies any field is caught by the coverage tests below.
func fillDistinct(v reflect.Value, base int64) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		x := base + int64(i) + 1
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(x)
		case reflect.Uint64:
			f.SetUint(uint64(x))
		default:
			panic(fmt.Sprintf("unhandled stats field kind %v", f.Kind()))
		}
	}
}

// checkAddFields requires addFields(a, b, sign) to reach every field of
// T: each result field must be a + sign*b of the distinct inputs.
func checkAddFields[T any](t *testing.T, sign int64) {
	t.Helper()
	var a, b T
	fillDistinct(reflect.ValueOf(&a).Elem(), 1000)
	fillDistinct(reflect.ValueOf(&b).Elem(), 100)
	got := reflect.ValueOf(addFields(a, b, sign))
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < got.NumField(); i++ {
		var want, have int64
		switch got.Field(i).Kind() {
		case reflect.Int64:
			want = va.Field(i).Int() + sign*vb.Field(i).Int()
			have = got.Field(i).Int()
		case reflect.Uint64:
			want = int64(va.Field(i).Uint()) + sign*int64(vb.Field(i).Uint())
			have = int64(got.Field(i).Uint())
		}
		if have != want {
			t.Errorf("addFields(sign %d) drops or mis-copies %s.%s: got %d, want %d",
				sign, got.Type(), got.Type().Field(i).Name, have, want)
		}
	}
}

// TestSubMemCoversEveryField is the regression test for the warmup
// subtraction bug: a hand-kept field list once skipped a memctrl.Stats
// field (WriteModePS), so the measured region kept the warmup's value.
// The subtraction is now addFields, which walks every field.
func TestSubMemCoversEveryField(t *testing.T) { checkAddFields[memctrl.Stats](t, -1) }

// TestSubCoreCoversEveryField is the same guard for cpu.Stats.
func TestSubCoreCoversEveryField(t *testing.T) { checkAddFields[cpu.Stats](t, -1) }

// TestGatherCoversEveryStatsField pins that the warmup snapshot sums
// every memctrl.Stats field across channels — a field gather skips makes
// the warmup subtraction silently wrong for multi-channel runs.
func TestGatherCoversEveryStatsField(t *testing.T) {
	checkAddFields[memctrl.Stats](t, 1)
	cfg := short(Hierarchy1(), memctrl.ReplicationHeteroDMR, fastPtr())
	cfg.CopyErrorRate = 0.002
	res := MustRun(cfg, workload.ByName("hpcg"))
	// The run exercises reads, writes, mode switches, and fast time; the
	// end-minus-warm subtraction of gather's snapshots feeds res.Mem, so
	// nonzero values here prove both reach these fields. WriteModePS is
	// the field the original code dropped.
	if res.Mem.WriteModePS <= 0 {
		t.Errorf("measured WriteModePS = %d, want > 0 (warmup subtraction drops it?)", res.Mem.WriteModePS)
	}
	if res.Mem.FastPS <= 0 || res.Mem.BusBusyPS <= 0 {
		t.Errorf("time accounting dead: FastPS=%d BusBusyPS=%d", res.Mem.FastPS, res.Mem.BusBusyPS)
	}
}

// TestAddFieldsPanicsOnNonCounter pins that a Stats field addFields
// cannot add is a loud failure naming the field, never a silent skip.
func TestAddFieldsPanicsOnNonCounter(t *testing.T) {
	type stats struct {
		Reads uint64
		Label string
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "stats.Label") || !strings.Contains(msg, "string") {
			t.Fatalf("panic = %q, want one naming stats.Label and its kind", msg)
		}
	}()
	addFields(stats{Reads: 1}, stats{Reads: 2}, 1)
}

func fastPtr() *dramspec.Config {
	f := fastPoint()
	return &f
}

func TestRunWithCheckReportsNoViolations(t *testing.T) {
	for _, repl := range []memctrl.Replication{memctrl.ReplicationNone, memctrl.ReplicationHeteroDMR} {
		t.Run(repl.String(), func(t *testing.T) {
			var fast *dramspec.Config
			if repl.Fast() {
				fast = fastPtr()
			}
			cfg := short(Hierarchy2(), repl, fast)
			cfg.CopyErrorRate = 0.001
			cfg.Check = true
			res := MustRun(cfg, workload.ByName("lulesh"))
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

func TestCheckDoesNotPerturbResults(t *testing.T) {
	base := short(Hierarchy1(), memctrl.ReplicationHeteroDMR, fastPtr())
	base.CopyErrorRate = 0.001
	plain := MustRun(base, workload.ByName("hpcg"))

	checked := base
	checked.Check = true
	checked.Obs = obs.NewRegistry()
	observed := MustRun(checked, workload.ByName("hpcg"))

	if len(observed.Violations) != 0 {
		t.Fatalf("violations: %v", observed.Violations)
	}
	observed.Violations = nil
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("instrumentation perturbed results:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
	if len(checked.Obs.Snapshot().Names) == 0 {
		t.Error("registry empty after observed run")
	}
}
