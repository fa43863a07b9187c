package experiments

import "testing"

// TestDCScaleSmoke runs the smallest dcscale cell end to end — the CI
// gate for the datacenter-scale path. The scheduling outcome is
// deterministic (ModeSim), so the cell's structural numbers are pinned
// exactly; latency percentiles are machine-dependent and only checked
// for presence and ordering.
func TestDCScaleSmoke(t *testing.T) {
	row := RunDCScale(512, 50)
	if row.Completed != 50 {
		t.Fatalf("completed %d of 50 jobs", row.Completed)
	}
	if row.Events <= 0 || row.Plans <= 0 {
		t.Fatalf("degenerate run: %d events, %d plans", row.Events, row.Plans)
	}
	if row.MakespanMin <= 0 {
		t.Fatalf("makespan %.2f min", row.MakespanMin)
	}
	if !(row.P50us > 0 && row.P50us <= row.P90us && row.P90us <= row.P99us) {
		t.Fatalf("latency percentiles not ordered: p50=%.0f p90=%.0f p99=%.0f",
			row.P50us, row.P90us, row.P99us)
	}
}

// TestDCScaleFull sweeps every cell including 2048 devices x 200 jobs
// and asserts DCScaleHeadline: p50 decision latency at 2048 devices
// stays flat against the 512-device p50 (same 200-job trace). Skipped under
// -short; CI runs the smoke above instead.
func TestDCScaleFull(t *testing.T) {
	if testing.Short() {
		t.Skip("dcscale full sweep skipped in -short mode")
	}
	rows, _ := CompareDCScale()
	if len(rows) != len(DCScaleCells()) {
		t.Fatalf("%d rows for %d cells", len(rows), len(DCScaleCells()))
	}
	for _, r := range rows {
		if r.Completed != r.Jobs {
			t.Fatalf("%dx%d: completed %d of %d jobs", r.Devices, r.Jobs, r.Completed, r.Jobs)
		}
	}
	if err := DCScaleHeadline(rows[1].P50us, rows[3].P50us); err != nil { // 512x200 vs 2048x200
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
