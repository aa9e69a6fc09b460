// Command tracegen generates a Grizzly-like JSON job trace with the
// generator behind Fig 17 (see internal/hpc's trace format), or
// summarizes an existing trace file. Nothing reads a trace file into
// Fig 17, which simulates the trace it generates in process:
// hpc.ReadTrace serves only -summarize.
//
//	tracegen -jobs 58000 -nodes 1490 -months 4 -util 0.78 > trace.json
//	tracegen -summarize trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hpc"
	"repro/internal/memuse"
)

func main() {
	var (
		jobs      = flag.Int("jobs", hpc.GrizzlyJobs, "number of jobs")
		nodes     = flag.Int("nodes", hpc.GrizzlyNodes, "cluster size")
		months    = flag.Float64("months", hpc.GrizzlyMonths, "trace period in 30-day months")
		util      = flag.Float64("util", hpc.TargetNodeUtil, "target overall node utilization")
		seed      = flag.Uint64("seed", 1, "generator seed")
		summarize = flag.String("summarize", "", "summarize an existing trace file instead of generating")
	)
	flag.Parse()

	if *summarize != "" {
		f, err := os.Open(*summarize)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tr, err := hpc.ReadTrace(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var n25, n50 int
		for _, j := range tr.Jobs {
			switch j.Bucket {
			case memuse.BucketUnder25:
				n25++
			case memuse.BucketUnder50:
				n50++
			}
		}
		fmt.Printf("jobs: %d  nodes: %d  period: %.1f days  utilization: %.1f%%\n",
			len(tr.Jobs), tr.TotalNodes, tr.PeriodS/hpc.SecondsPerDay, 100*tr.NodeUtilization())
		fmt.Printf("memory buckets: <25%%: %d  25-50%%: %d  >=50%%: %d\n",
			n25, n50, len(tr.Jobs)-n25-n50)
		return
	}

	frac := memuse.Analyze(memuse.Generate(memuse.GeneratorConfig{Jobs: *jobs, Seed: *seed}))
	tr := hpc.GenerateTrace(*jobs, *nodes, *months*30*hpc.SecondsPerDay, *util, frac, *seed)
	if err := tr.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
