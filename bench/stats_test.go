package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The p90 is a percentile only with at least ten samples beyond it.
func TestP90TailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100, 90, true}, // ten beyond
		{99, 90, false}, // nine beyond
		{110, 99, true}, // eleven beyond
		{19, 18, false},
		{1, 1, false},
	} {
		got, ok := p90(seq(c.n))
		if got != c.want || ok != c.ok {
			t.Errorf("p90 of 1..%d = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if _, ok := p90(nil); ok {
		t.Error("p90 of nothing claims a tail")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the PR driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 12, 11, 13, 40}, 10.5, 26.5},
		{seq(11), 3, 9},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 { // (8.25-2.75)/5.5
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := spread([]float64{2, 2, 2}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

// A stratified metric is the mean over the kinds of operation of each
// kind's median: one slow plan moves nothing, and the sample count is
// that of all kinds together.
func TestReduceByStrata(t *testing.T) {
	s := series{
		"plan_ms/scale-out": {1, 2, 3},
		"plan_ms/moe":       {10, 20, 30, 1000},
		"plan_ms":           {999}, // not a stratum
		"replan_ms/0":       {7},
	}
	v, n, _ := reduce(findE2E("plan_ms"), s)
	if v != (2+25)/2.0 || n != 7 {
		t.Errorf("plan_ms = %v over %d samples, want 13.5 over 7", v, n)
	}
	if v, n, _ := reduce(findE2E("plan_ms"), series{}); v != 0 || n != 0 {
		t.Errorf("plan_ms of nothing = %v over %d samples", v, n)
	}
}

// A cell the workload does not measure is marked, repeats the primary
// timing in the cell's unit if it is a time, and reads exactly 1 if not.
func TestStandInCells(t *testing.T) {
	w, _ := findWorkload("plan-128dev")
	res := &passResult{samples: series{"setup_s": {2}, "plan_ms/a": {40}, "plan_ms/b": {60}, "replan_ms/0": {30}}}
	m := endToEndOf(w, res)
	for name, want := range map[string]metricValue{
		"setup_s":             {Value: 2, Unit: "s", Samples: 1},
		"plan_ms":             {Value: 50, Unit: "ms", Samples: 2},
		"replan_ms":           {Value: 30, Unit: "ms", Samples: 1},
		"reconfig_s":          {Value: 0.05, Unit: "s", StandIn: true},
		"submit_ms":           {Value: 50, Unit: "ms", StandIn: true},
		"copy_amp":            {Value: 1, Unit: "ratio", StandIn: true},
		"allocs_per_reconfig": {Value: 1, Unit: "count", StandIn: true},
		"coordd_rss_mb":       {Value: 1, Unit: "MB", StandIn: true},
	} {
		if m[name] != want {
			t.Errorf("%s = %+v, want %+v", name, m[name], want)
		}
	}
	if len(m) != len(endToEnd) {
		t.Errorf("%d cells, want all %d", len(m), len(endToEnd))
	}
}
