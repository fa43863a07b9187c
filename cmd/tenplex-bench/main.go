// Command tenplex-bench regenerates every table and figure of the
// paper's evaluation (§6) and prints them as text tables. Use -fig to
// select a single experiment, -record to emit a machine-readable BENCH
// record of one kind, and -check to gate the tree against the committed
// records (the format and the comparison rule are in record.go, the
// kinds in kinds.go, both described in EXPERIMENTS.md):
//
//	tenplex-bench                      # everything
//	tenplex-bench -fig fig10           # one experiment
//	tenplex-bench -list                # available experiment IDs
//	tenplex-bench -record planner -out BENCH_planner_<date>.json  # one record ("-" = stdout, the default)
//	tenplex-bench -check               # bench-regression gate vs committed BENCH_*.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tenplex/internal/experiments"
)

// fatal reports a failed mode or experiment and exits.
func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "tenplex-bench: %s: %v\n", what, err)
	os.Exit(1)
}

// tableOrExit adapts an experiment that can fail to the registry: it
// keeps the rendered table and exits on the error.
func tableOrExit[R any](id string, run func() (R, experiments.Table, error)) func() experiments.Table {
	return func() experiments.Table {
		_, t, err := run()
		if err != nil {
			fatal(id, err)
		}
		return t
	}
}

var all = map[string]func() experiments.Table{
	"tab1":     func() experiments.Table { _, t := experiments.Tab1SystemComparison(); return t },
	"fig2a":    func() experiments.Table { _, t := experiments.Fig2aDatasetConsistency(); return t },
	"fig2b":    func() experiments.Table { _, t := experiments.Fig2bBatchConsistency(); return t },
	"fig3":     func() experiments.Table { _, t := experiments.Fig3ParallelizationSweep(); return t },
	"fig9":     func() experiments.Table { _, t := experiments.Fig9ElasticConvergence(1); return t },
	"fig10":    func() experiments.Table { _, t := experiments.Fig10Redeployment(); return t },
	"fig11":    func() experiments.Table { _, t := experiments.Fig11FailureRecovery(); return t },
	"fig12":    func() experiments.Table { _, t := experiments.Fig12ReconfigOverhead(); return t },
	"fig13":    func() experiments.Table { _, t := experiments.Fig13HorovodThroughput(); return t },
	"fig14":    func() experiments.Table { _, t := experiments.Fig14ParallelizationType(); return t },
	"fig15":    func() experiments.Table { _, t := experiments.Fig15ClusterSize(); return t },
	"fig16":    func() experiments.Table { _, t := experiments.Fig16Convergence(); return t },
	"multijob": func() experiments.Table { _, t := experiments.MultiJobCluster(); return t },
	"dcscale":  func() experiments.Table { _, t := experiments.CompareDCScale(); return t },

	"policies":  tableOrExit("policies", experiments.PolicyComparison),
	"placement": tableOrExit("placement", experiments.PlacementComparison),
	"hostile":   tableOrExit("hostile", experiments.HostileComparison),
	"ablations": tableOrExit("ablations", experiments.Ablations),
}

func ids() []string { return names(all, nil) }

func main() {
	fig := flag.String("fig", "", "experiment ID to run (default: all)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	recordKind := flag.String("record", "", "measure one BENCH record kind (planner, coordinator, placement, hostile, dcscale), write it to -out and exit")
	out := flag.String("out", "-", "path -record writes to (\"-\" for stdout)")
	jsonBudget := flag.Duration("json-budget", 200*time.Millisecond, "per-scenario measurement budget for -record and -check")
	doCheck := flag.Bool("check", false, "re-run the benchmarks and fail on regression vs the committed BENCH_*.json baselines")
	checkDir := flag.String("check-dir", ".", "directory holding the BENCH_*.json baselines for -check")
	checkTol := flag.Float64("check-tolerance", checkTolerance, "relative slack for timing metrics in -check (exact and sim metrics never get any)")
	flag.Parse()

	if *doCheck {
		n, fails, err := runCheck(*checkDir, *checkTol, *jsonBudget)
		if err != nil {
			fatal("check", err)
		}
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "check FAIL %s\n", f)
		}
		if len(fails) > 0 {
			fatal("check", fmt.Errorf("%d regression(s) against %d baseline(s)", len(fails), n))
		}
		fmt.Printf("tenplex-bench: check: %d baseline(s) clean\n", n)
		return
	}
	if *recordKind != "" {
		for _, k := range kinds {
			if k.name != *recordKind {
				continue
			}
			rec, err := measureRecord(k, *jsonBudget)
			if err == nil {
				err = write(rec, *out)
			}
			if err != nil {
				fatal("record", err)
			}
			return
		}
		fatal("record", fmt.Errorf("unknown kind %q", *recordKind))
	}
	if *list {
		for _, id := range ids() {
			fmt.Println(id)
		}
		return
	}
	if *fig != "" {
		run, ok := all[*fig]
		if !ok {
			fatal("fig", fmt.Errorf("unknown experiment %q (try -list)", *fig))
		}
		fmt.Print(run().Render())
		return
	}
	for _, id := range ids() {
		fmt.Print(all[id]().Render())
		fmt.Println()
	}
}
