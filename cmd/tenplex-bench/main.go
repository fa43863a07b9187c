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
	"slices"
	"strings"
	"time"

	"tenplex/internal/experiments"
)

// fatal reports a failed mode or experiment and exits.
func fatal(what string, err error) {
	fmt.Fprintf(os.Stderr, "tenplex-bench: %s: %v\n", what, err)
	os.Exit(1)
}

// registry is every experiment -fig runs, in ID order.
func registry() []experiments.Experiment {
	exps := experiments.All()
	slices.SortFunc(exps, func(a, b experiments.Experiment) int { return strings.Compare(a.ID, b.ID) })
	return exps
}

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
		for _, e := range registry() {
			fmt.Println(e.ID)
		}
		return
	}
	ran := false
	for _, e := range registry() {
		if *fig != "" && e.ID != *fig {
			continue
		}
		_, tab, err := e.Run()
		if err != nil {
			fatal(e.ID, err)
		}
		fmt.Print(tab.Render())
		if *fig == "" {
			fmt.Println()
		}
		ran = true
	}
	if !ran {
		fatal("fig", fmt.Errorf("unknown experiment %q (try -list)", *fig))
	}
}
