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

// TestWorkerArgsCarryTheStore: a spawned worker parses its arguments
// into worker mode on an ephemeral port, with the coordinator's
// -cache-dir and, when set, its -cache-max-bytes, so a capped store
// stays capped under -shard-workers, and with the coordinator's -faults
// plan, so one flag arms the whole local fleet. No process is started.
func TestWorkerArgsCarryTheStore(t *testing.T) {
	for _, tc := range []struct {
		dir      string
		maxBytes int64
		faults   string
	}{
		{"", 0, ""},
		{"", 4096, ""}, // no store, so no cap to pass
		{"store", 0, ""},
		{"store", 4096, ""},
		{"", 0, "seed=5;runcache/put/torn=1:count=1"},
		{"store", 4096, "seed=7;shard/post/refuse=1:count=2"},
	} {
		coord := &CLI{CacheDir: tc.dir, CacheMaxBytes: tc.maxBytes, Faults: tc.faults}
		args := coord.workerArgs()
		var c CLI
		fs := flag.NewFlagSet("heterodmr", flag.ContinueOnError)
		c.Register(fs)
		c.RegisterWorker(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		wantMax := tc.maxBytes
		if tc.dir == "" {
			wantMax = 0
		}
		if !c.Worker || c.WorkerAddr != "127.0.0.1:0" || c.CacheDir != tc.dir || c.CacheMaxBytes != wantMax ||
			c.Faults != tc.faults || c.Spawn != 0 {
			t.Errorf("workerArgs of %+v = %v parses to worker=%v addr=%q dir=%q max=%d faults=%q spawn=%d",
				tc, args, c.Worker, c.WorkerAddr, c.CacheDir, c.CacheMaxBytes, c.Faults, c.Spawn)
		}
	}
}
