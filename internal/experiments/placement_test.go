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
	rows, tab, err := PlacementComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(tab.Rows) != 4 {
		t.Fatalf("want 4 comparison cells, got %d", len(rows))
	}
	cell := map[string]PlacementRow{}
	for _, r := range rows {
		cell[r.Workload+"/"+r.Mode] = r
	}
	count, placed := cell["steady/count"], cell["steady/placement"]
	if count.Workload == "" || placed.Workload == "" {
		t.Fatalf("missing steady cells in %v", rows)
	}
	if err := PlacementHeadline(count.MeanUtilization, placed.MeanUtilization,
		float64(count.MovedBytes), float64(placed.MovedBytes)); err != nil {
		t.Fatal(err)
	}
	if placed.ReconfigSec > count.ReconfigSec+1e-9 {
		t.Fatalf("placement reconfiguration time %.6f above count-based %.6f",
			placed.ReconfigSec, count.ReconfigSec)
	}
	for k, r := range cell {
		if r.Completed != 12 {
			t.Fatalf("%s completed only %d of 12 jobs", k, r.Completed)
		}
	}
	// The bursty workload is a different trace (same offered load).
	if cell["bursty/count"].MakespanMin == count.MakespanMin {
		t.Fatal("bursty workload reproduced the steady trace")
	}
}

// TestPlacementComparisonDeterministic: the whole four-cell comparison
// is reproducible run over run.
func TestPlacementComparisonDeterministic(t *testing.T) {
	a, _, err := PlacementComparison()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := PlacementComparison()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("placement comparison not deterministic:\n%v\n%v", a, b)
	}
}
