package experiments

import (
	"reflect"
	"testing"
)

// TestPlacementComparisonAcceptance is the experiment's acceptance
// gate: on the contended steady 32-device/12-job scenario,
// PlacementHeadline holds (the same predicate tenplex-bench -check
// asserts against the committed BENCH_placement baseline),
// reconfiguration time does not grow, and every job still completes.
func TestPlacementComparisonAcceptance(t *testing.T) {
	runs, tab, err := Placement().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 || len(tab.Rows) != 4 {
		t.Fatalf("want 4 comparison cells, got %d", len(runs))
	}
	if err := PlacementHeadline(runs.Num); err != nil {
		t.Fatal(err)
	}
	count, placed := runs.Num("steady/count", "aggregate_reconfig_seconds"), runs.Num("steady/placement", "aggregate_reconfig_seconds")
	if !(placed <= count+1e-9) {
		t.Fatalf("placement reconfiguration time %.6f above count-based %.6f", placed, count)
	}
	for _, c := range runs {
		if c.Num("jobs_completed") != 12 {
			t.Fatalf("%s completed only %v of 12 jobs", c.Key, c.Num("jobs_completed"))
		}
	}
	// The bursty workload is a different trace (same offered load).
	if runs.Num("bursty/count", "makespan_min") == runs.Num("steady/count", "makespan_min") {
		t.Fatal("bursty workload reproduced the steady trace")
	}
}

// TestPlacementComparisonDeterministic: the whole four-cell comparison
// is reproducible run over run, in every cell its record files.
func TestPlacementComparisonDeterministic(t *testing.T) {
	e := Placement()
	a, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Record(a), e.Record(b)) {
		t.Fatalf("placement comparison not deterministic:\n%v\n%v", e.Record(a), e.Record(b))
	}
}
