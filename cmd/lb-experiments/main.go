// Command lb-experiments regenerates every experiment in EXPERIMENTS.md:
// for each table/figure of the paper (and each quantitative claim in its
// text), it runs the corresponding workload and prints the measured
// series. See DESIGN.md §3 for the experiment index.
//
// Usage:
//
//	lb-experiments [-exp all|adaptive|fig3|fig5|wco|branch|ivm|live|treap|repair|solve|predict] [-quick]
//	               [-obs-json file]
//
// With -obs-json, a process-wide metrics registry is installed for the
// run and its snapshot (counters, rule profiles, transaction histograms,
// traces) is written as JSON to the given file ("-" for stdout).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"logicblox/internal/obs"
	"logicblox/internal/relation"
)

type experiment struct {
	name string
	desc string
	run  func(quick bool)
}

var experiments = []experiment{
	{"fig3", "E5: unary leapfrog trace and sensitivity intervals (paper Figure 3)", runFig3},
	{"fig5", "E1: 3-clique runtime vs edges — LFTJ vs pairwise joins (paper Figure 5)", runFig5},
	{"wco", "E6: worst-case-optimality on Loomis–Whitney instances", runWCO},
	{"branch", "E2: O(1) branching; branches per second vs database size", runBranch},
	{"ivm", "E4: incremental maintenance: recompute vs counting vs DRed", runIVM},
	{"live", "E7: live programming — addblock incremental vs full re-evaluation", runLive},
	{"treap", "E8: treap set operations and sharing-aware equality", runTreap},
	{"repair", "E3: fine-grained transaction repair vs coarse optimistic retry across α (paper §3.4)", runRepair},
	{"solve", "E9: LP/MIP grounding and solving", runSolve},
	{"predict", "E10: predict rules — learn and eval throughput and accuracy", runPredict},
	{"adaptive", "E11: sampled join order vs the compiler's, one evaluation in a fresh context (paper §3.2)", runAdaptive},
}

func main() {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	sort.Strings(names)
	exp := flag.String("exp", "all", "experiment to run: all|"+strings.Join(names, "|"))
	quick := flag.Bool("quick", false, "smaller sizes for a fast smoke run")
	obsJSON := flag.String("obs-json", "", `write the run's observability snapshot as JSON to this file ("-" for stdout)`)
	flag.Parse()

	var reg *obs.Registry
	if *obsJSON != "" {
		reg = obs.NewRegistry()
		obs.SetDefault(reg)
		relation.EnableStorageStats(true)
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Printf("=== %s — %s ===\n", e.name, e.desc)
		e.run(*quick)
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if reg != nil {
		w := os.Stdout
		if *obsJSON != "-" {
			f, err := os.Create(*obsJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "obs-json:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := reg.Snapshot().WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "obs-json:", err)
			os.Exit(1)
		}
	}
}
