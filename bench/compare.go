package main

import (
	"fmt"
	"io"
)

// Verdicts of one (workload, metric) row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of two sets of runs of one metric (lower
// is better for every end-to-end metric) under the metric's bound. When
// either side's own run-to-run spread is wider than the bound, or a side
// has fewer than two runs and so no spread at all, the pair cannot be
// told apart at that bound: the row is unresolved, not same.
func judge(a, b []float64, bound float64) (verdict string, medA, medB, worst float64) {
	medA, medB = median(a), median(b)
	worst = max(spread(a), spread(b))
	switch {
	case len(a) < 2 || len(b) < 2 || worst > bound:
		verdict = verdictUnresolved
	case medA > 0 && (medB-medA)/medA > bound:
		verdict = verdictWorse
	case medA == 0 && medB > 0:
		verdict = verdictWorse
	default:
		verdict = verdictSame
	}
	return verdict, medA, medB, worst
}

// settingsOf is everything about how a file was measured that changes
// its numbers.
func settingsOf(f *resultFile) string {
	s := fmt.Sprintf("%g s per run, %d set-ups, reference probe %g ms, GOMAXPROCS %d of %d, %s, seed %d, %d runs, warm-up",
		f.Seconds, f.Setups, f.RefProbeMs, f.GOMAXPROCS, f.NProc, f.GoVersion, f.Seed, f.Runs)
	for _, w := range f.Workloads {
		s += fmt.Sprintf(" %s:%d", w.Name, w.Warmup)
	}
	return s
}

// compareFiles prints one row per (workload, end-to-end metric) both
// files measured, the two ungated p90s included, and reports whether any
// row is worse. Cells a workload does not measure are left out.
func compareFiles(w io.Writer, fa, fb *resultFile) (worse bool, err error) {
	if a, b := settingsOf(fa), settingsOf(fb); a != b {
		return false, fmt.Errorf("the two files were measured differently and cannot be compared:\n  A: %s\n  B: %s", a, b)
	}
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "B/A-1", "spread", "bound", "verdict")
	for i, wa := range fa.Workloads {
		wb := fb.Workloads[i] // the same workloads in the same order, or the settings differed
		for _, d := range endToEnd {
			va, okA := valuesOf(wa, d.name)
			vb, okB := valuesOf(wb, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, ma, mb, sp := judge(va, vb, d.bound)
			note := ""
			if !okA || !okB { // a p90 without ten samples beyond it in some run
				verdict, note = verdictUnresolved, " (too short a tail)"
			}
			rel := 0.0
			if ma != 0 {
				rel = mb/ma - 1
			}
			fmt.Fprintf(w, "%-20s %-22s %12.6g %12.6g %+8.3f %8.3f %6.2f  %s%s\n",
				wa.Name, d.name, ma, mb, rel, sp, d.bound, verdict, note)
			if verdict == verdictWorse {
				worse = true
			}
		}
	}
	return worse, nil
}

// valuesOf lists a metric's measured values over a workload's runs,
// none if the cell is a stand-in; tails is false if any of them is a
// percentile resting on too short a tail.
func valuesOf(w workloadResult, metric string) (out []float64, tails bool) {
	tails = true
	for _, r := range w.Runs {
		m, ok := r.Metrics[metric]
		if !ok || m.StandIn {
			continue
		}
		out = append(out, m.Value)
		tails = tails && !m.NoTail
	}
	return out, tails
}
