// Command heterodmr is the reproduction's CLI: it runs any table, figure
// or ablation of the paper by id, or all of them in paper order.
//
// Usage:
//
//	heterodmr -list
//	heterodmr -exp fig12 [-seed 1] [-quick]
//	heterodmr -exp fig12,fig13,fig14,fig15,config
//	heterodmr -all [-markdown]
//	heterodmr -ablations
//	heterodmr -all -check [-metrics out.json] [-trace out.jsonl]
//	heterodmr -worker -worker-addr 127.0.0.1:0 -cache-dir /shared/cache
//	heterodmr -all -shard-workers 4 -cache-dir /shared/cache
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliobs"
	"repro/internal/experiments"
	"repro/internal/shard"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp       = flag.String("exp", "", "comma-separated experiment or ablation ids (see -list)")
		all       = flag.Bool("all", false, "run every experiment in paper order")
		ablations = flag.Bool("ablations", false, "run the design-choice ablation studies")
		list      = flag.Bool("list", false, "list experiment ids")
		seed      = flag.Uint64("seed", 1, "seed for all synthetic inputs")
		quick     = flag.Bool("quick", false, "reduced scale (one benchmark per suite, fewer trials)")
		markdown  = flag.Bool("markdown", false, "render tables as markdown")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential); output is identical for every value")
		sh        = &shard.CLI{}
	)
	sh.Register(flag.CommandLine)
	ob := cliobs.Register()
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "heterodmr: invalid -workers %d: must be >= 0 (0 = GOMAXPROCS)\n", *workers)
		return 2
	}
	if *list {
		for _, e := range append(experiments.Registry(), experiments.Ablations()...) {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if sh.Worker {
		return sh.ServeWorker("heterodmr", nil)
	}
	var entries []experiments.Entry
	switch {
	case *all:
		entries = experiments.Registry()
	case *ablations:
		entries = experiments.Ablations()
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			entries = append(entries, e)
		}
	default:
		flag.Usage()
		return 2
	}
	if code := ob.StartProfile("heterodmr"); code != 0 {
		return code
	}
	reg := ob.Registry()
	pool, cache, cleanup, err := sh.Pool(reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heterodmr: %v\n", err)
		return 1
	}
	defer cleanup()
	s := experiments.New(experiments.Options{
		Seed: *seed, Quick: *quick, Workers: *workers, Check: ob.Check, Obs: reg,
		Cache: cache, Shard: pool,
	})
	for _, t := range s.Run(entries) {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}
	if pool != nil || cache != nil {
		fmt.Fprintf(os.Stderr, "heterodmr: computed %d of %d node simulations\n",
			s.ComputedRuns(), s.CachedRuns())
	}
	return ob.Finish("heterodmr", reg, s.Violations())
}
