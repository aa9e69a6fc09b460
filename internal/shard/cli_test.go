package shard

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestCLIValidateRefusesBadFlags: a negative -shard-workers or
// -cache-max-bytes, or a -shard entry that is not an http or https URL
// with a host, parses but fails Validate with an error naming the flag
// (and the bad entry), so a binary refuses it before any worker spawns
// or cache opens. Validate itself starts nothing. An accepted -shard
// list is trimmed of spaces, empty entries and one trailing slash.
func TestCLIValidateRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // named in the error; nil = accepted
		urls []string // the accepted -shard list
	}{
		{nil, nil, nil},
		{[]string{"-shard-workers", "2", "-cache-max-bytes", "4096"}, nil, nil},
		{[]string{"-shard", "http://127.0.0.1:8481, https://10.0.0.2:8481/,"}, nil,
			[]string{"http://127.0.0.1:8481", "https://10.0.0.2:8481"}},
		{[]string{"-shard-workers", "-1"}, []string{"-shard-workers"}, nil},
		{[]string{"-cache-max-bytes", "-5"}, []string{"-cache-max-bytes"}, nil},
		{[]string{"-shard", "localhost:8481"}, []string{"-shard", "localhost:8481"}, nil},
		{[]string{"-shard", "http://127.0.0.1:8481,10.0.0.2:8481"}, []string{"-shard", `"10.0.0.2:8481"`}, nil},
		{[]string{"-shard", "ftp://10.0.0.2"}, []string{"-shard", "ftp://10.0.0.2"}, nil},
		{[]string{"-shard", "http://"}, []string{"-shard", `"http://"`}, nil},
	} {
		var c CLI
		fs := flag.NewFlagSet("heterodmr", flag.ContinueOnError)
		c.Register(fs)
		c.RegisterWorker(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := c.Validate()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%v refused: %v", tc.args, err)
			} else if urls, _ := c.workerURLs(); !slices.Equal(urls, tc.urls) {
				t.Errorf("%v: -shard parses to %q, want %q", tc.args, urls, tc.urls)
			}
			continue
		}
		for _, w := range tc.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %v does not name %s", tc.args, err, w)
			}
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
