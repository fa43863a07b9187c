package experiments

import (
	"testing"
	"time"
)

// TestDatapathComparison pins the acceptance bars of the streaming
// refactor: on every workload the streamed pipeline's copy
// amplification stays at or below 1 (local stores retain uploads by
// reference, so each plan byte is copied at most once), the
// materialized reference pays >= 2x, and the streamed pipeline
// allocates well under half the reference's objects and bytes.
func TestDatapathComparison(t *testing.T) {
	rows, table, err := DatapathComparison(20 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(table.Rows) != 4 {
		t.Fatalf("expected 4 rows (2 workloads x 2 pipelines), got %d", len(rows))
	}
	byKey := map[string]DatapathRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Pipeline] = r
		if r.PlanBytes == 0 {
			t.Fatalf("%s/%s moved no bytes", r.Workload, r.Pipeline)
		}
	}
	for _, w := range []string{"tp-reshard", "distributed-dp-scaleout"} {
		s, okS := byKey[w+"/streamed"]
		m, okM := byKey[w+"/materialized"]
		if !okS || !okM {
			t.Fatalf("missing pipeline rows for %s", w)
		}
		for _, r := range []DatapathRow{s, m} {
			if err := CopyAmpHeadline(r.Pipeline == "materialized", r.CopyAmp); err != nil {
				t.Errorf("%s/%s %v", w, r.Pipeline, err)
			}
		}
		if s.AllocsPerOp*2 >= m.AllocsPerOp {
			t.Errorf("%s: streamed allocs/op %d not < half of materialized %d",
				w, s.AllocsPerOp, m.AllocsPerOp)
		}
		if s.AllocBytes*3/2 >= m.AllocBytes {
			t.Errorf("%s: streamed alloc bytes %d not well under materialized %d",
				w, s.AllocBytes, m.AllocBytes)
		}
		if s.PlanBytes != m.PlanBytes {
			t.Errorf("%s: plan bytes differ between pipelines: %d vs %d", w, s.PlanBytes, m.PlanBytes)
		}
	}
}
