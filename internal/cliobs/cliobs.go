// Package cliobs registers the observability flags that cmd/heterodmr
// and cmd/simd share (-check, -metrics, -trace, -cpuprofile,
// -memprofile) and finalizes them after the run: metrics, trace, and
// profile files are written where requested, and conservation
// violations go to stderr with a non-zero exit code. Violations and profiles never touch stdout,
// so the byte-identical-output contract the experiment drivers maintain
// is unaffected by observability.
package cliobs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
)

// Flags holds the parsed observability flags.
type Flags struct {
	Check      bool
	Metrics    string
	Trace      string
	CPUProfile string
	MemProfile string

	cpuFile *os.File // open while CPU profiling; closed by Finish
	memFile *os.File // opened eagerly by StartProfile, written by Finish
}

// Register installs the shared observability flags on the default flag
// set. Call before flag.Parse.
func Register() *Flags { return RegisterOn(flag.CommandLine) }

// RegisterOn installs -check, -metrics, -trace, -cpuprofile, and
// -memprofile on an explicit FlagSet — the daemon and tests own their
// flag sets; the one-shot CLIs go through Register. Call before the
// set's Parse.
func RegisterOn(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Check, "check", false,
		"run conservation self-checks after every simulation; violations go to stderr and exit non-zero")
	fs.StringVar(&f.Metrics, "metrics", "",
		"write counters and histograms as sorted-key JSON to this file")
	fs.StringVar(&f.Trace, "trace", "",
		"write the flight-recorder event trace as JSON lines to this file")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the run to this file (see StartProfile)")
	fs.StringVar(&f.MemProfile, "memprofile", "",
		"write a pprof heap profile, taken after the run, to this file")
	return f
}

// StartProfile sets up profiling: it begins CPU profiling when
// -cpuprofile was given and eagerly opens the -memprofile output so an
// unwritable path fails the process at startup rather than losing the
// profile after the whole run. Call it after flag parsing and before the
// simulation starts; Finish stops the CPU profile, writes the heap
// profile, and closes both files. It returns the process exit code:
// non-zero when any profile could not be set up — profile setup failures
// must never let the run continue and exit 0, or CI-driven profiling
// runs silently produce nothing.
func (f *Flags) StartProfile(prog string) int {
	if err := f.startProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		return 1
	}
	return 0
}

func (f *Flags) startProfile() error {
	if f.CPUProfile != "" {
		out, err := os.Create(f.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return err
		}
		f.cpuFile = out
	}
	if f.MemProfile != "" {
		out, err := os.Create(f.MemProfile)
		if err != nil {
			if f.cpuFile != nil {
				pprof.StopCPUProfile()
				f.cpuFile.Close()
				f.cpuFile = nil
			}
			return err
		}
		f.memFile = out
	}
	return nil
}

// Registry returns a registry for the run when metrics or trace output
// was requested, else nil (instrumentation stays disabled).
func (f *Flags) Registry() *obs.Registry {
	if f.Metrics == "" && f.Trace == "" {
		return nil
	}
	return obs.NewRegistry()
}

// Finish writes the requested output files and reports violations. It
// returns the process exit code: non-zero when any conservation check
// failed or an output file could not be written.
func (f *Flags) Finish(prog string, reg *obs.Registry, violations []obs.Violation) int {
	code := 0
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		code = 1
	}
	if f.Metrics != "" {
		if err := writeFile(f.Metrics, reg.WriteMetricsJSON); err != nil {
			fail(err)
		}
	}
	if f.Trace != "" {
		if err := writeFile(f.Trace, reg.WriteTraceJSONL); err != nil {
			fail(err)
		}
	}
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := f.cpuFile.Close(); err != nil {
			fail(err)
		}
		f.cpuFile = nil
	}
	if f.memFile != nil {
		runtime.GC() // settle the heap so the profile shows live data, not garbage
		if err := pprof.WriteHeapProfile(f.memFile); err != nil {
			f.memFile.Close()
			fail(err)
		} else if err := f.memFile.Close(); err != nil {
			fail(err)
		}
		f.memFile = nil
	}
	if f.Check {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "%s: conservation violation: %s\n", prog, v)
		}
		if len(violations) > 0 {
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "%s: conservation checks passed\n", prog)
		}
	}
	return code
}

func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
