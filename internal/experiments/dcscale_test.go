package experiments

import (
	"fmt"
	"sync"
	"testing"
)

// dcscaleSweep runs the full dcscale table once for every test that
// reads it.
var dcscaleSweep = sync.OnceValues(func() (Runs, error) {
	runs, _, err := DCScale().Run()
	return runs, err
})

// TestDCScaleSmoke runs the smallest dcscale variant end to end — the CI
// gate for the datacenter-scale path. The scheduling outcome is
// deterministic (ModeSim), so the cell's structural numbers are pinned
// exactly; latency percentiles are machine-dependent and only checked
// for presence and ordering.
func TestDCScaleSmoke(t *testing.T) {
	e := DCScale()
	e.Variants = e.Variants[:1]
	runs, _, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := runs[0]
	if c.Key != "512x50" || c.Num("jobs_completed") != 50 {
		t.Fatalf("%s completed %v of 50 jobs", c.Key, c.Num("jobs_completed"))
	}
	if c.Num("events") <= 0 || c.Num("plans") <= 0 {
		t.Fatalf("degenerate run: %v events, %v plans", c.Num("events"), c.Num("plans"))
	}
	if c.Num("makespan_min") <= 0 {
		t.Fatalf("makespan %.2f min", c.Num("makespan_min"))
	}
	if p50, p90, p99 := c.Num("p50_us"), c.Num("p90_us"), c.Num("p99_us"); !(p50 > 0 && p50 <= p90 && p90 <= p99) {
		t.Fatalf("latency percentiles not ordered: p50=%.0f p90=%.0f p99=%.0f", p50, p90, p99)
	}
}

// TestDCScaleFull sweeps every variant including 2048 devices x 200 jobs
// and asserts DCScaleHeadline: p50 decision latency at 2048 devices
// stays flat against the 512-device p50 (same 200-job trace). Skipped under
// -short; CI runs the smoke above instead.
func TestDCScaleFull(t *testing.T) {
	if testing.Short() {
		t.Skip("dcscale full sweep skipped in -short mode")
	}
	runs, err := dcscaleSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(DCScale().Variants) {
		t.Fatalf("%d runs for %d variants", len(runs), len(DCScale().Variants))
	}
	for _, c := range runs {
		var devices, jobs int
		if _, err := fmt.Sscanf(c.Key, "%dx%d", &devices, &jobs); err != nil {
			t.Fatalf("variant key %q: %v", c.Key, err)
		}
		if c.Num("jobs_completed") != float64(jobs) {
			t.Fatalf("%s: completed %v of %d jobs", c.Key, c.Num("jobs_completed"), jobs)
		}
	}
	if err := DCScaleHeadline(runs.Num); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileNs(t *testing.T) {
	if got := PercentileNs(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	s := []int64{40, 10, 30, 20}
	if got := PercentileNs(s, 0); got != 10 {
		t.Fatalf("p0 = %v, want 10", got)
	}
	if got := PercentileNs(s, 1); got != 40 {
		t.Fatalf("p100 = %v, want 40", got)
	}
	if got := PercentileNs(s, 0.5); got != 30 {
		t.Fatalf("p50 = %v, want 30 (nearest rank)", got)
	}
	if s[0] != 40 {
		t.Fatal("PercentileNs must not mutate its input")
	}
}
