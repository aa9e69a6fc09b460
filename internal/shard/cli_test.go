package shard

import (
	"flag"
	"strings"
	"testing"
)

// TestCLIValidateRefusesNegativeCounts: a negative -shard-workers or
// -cache-max-bytes parses but fails Validate with an error naming the
// flag, so a binary refuses it before any worker spawns or cache opens.
// Validate itself starts nothing.
func TestCLIValidateRefusesNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the error; "" = accepted
	}{
		{nil, ""},
		{[]string{"-shard-workers", "2", "-cache-max-bytes", "4096"}, ""},
		{[]string{"-shard-workers", "-1"}, "-shard-workers"},
		{[]string{"-cache-max-bytes", "-5"}, "-cache-max-bytes"},
	} {
		var c CLI
		fs := flag.NewFlagSet("heterodmr", flag.ContinueOnError)
		c.Register(fs)
		c.RegisterWorker(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := c.Validate()
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%v refused: %v", tc.args, err)
		case tc.flag != "" && (err == nil || !strings.Contains(err.Error(), tc.flag)):
			t.Errorf("%v: error %v does not name %s", tc.args, err, tc.flag)
		}
	}
}

// TestCLIRegisterLeavesWorkerFlagsOut: a coordinator-only binary
// registers the store and coordinator set, so the worker and spawn
// flags stay undefined for it.
func TestCLIRegisterLeavesWorkerFlagsOut(t *testing.T) {
	var c CLI
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	c.Register(fs)
	for _, name := range []string{"shard", "cache-dir", "cache-max-bytes", "faults"} {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s not registered", name)
		}
	}
	for _, name := range []string{"worker", "worker-addr", "shard-workers"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s registered without RegisterWorker", name)
		}
	}
}
