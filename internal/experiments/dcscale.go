package experiments

import (
	"fmt"
	"sort"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/model"
	"tenplex/internal/sched"
)

// The dcscale experiment measures what the ROADMAP's datacenter-scale
// item asks for: does the control plane's per-decision latency stay
// flat as the cluster grows from 512 to 2048 devices, or does it grow
// linearly because every decision rescans the whole cluster? The
// scenarios run the full ModeSim coordinator — placement-aware, on the
// hierarchical Datacenter topology (NVLink island → node → rack → pod)
// — with 50–200 competing elastic jobs and spread fail-stop failures.
// The sim driver times every decision it hands the core, planning and
// pricing included, into Result.DecisionNs (one entry per event, so its
// length is the events cell); the execution behind its join and the
// runtime audits are not timed. Scheduling outcomes (events,
// completions, plans, makespan) are deterministic per cell; latency
// percentiles are machine-dependent and gated only relatively (the
// flatness ratio), never absolutely.

// DCScaleSeed fixes the dcscale arrival traces.
const DCScaleSeed = 77

// DCScaleCell names one scenario size.
type DCScaleCell struct {
	Devices int
	Jobs    int
}

// DCScaleCells are the scenario sizes the dcscale table sweeps. The
// (512, 200) and (2048, 200) cells hold the job population fixed while
// the cluster grows 4x — the pair the flatness gate compares.
func DCScaleCells() []DCScaleCell {
	return []DCScaleCell{
		{Devices: 512, Jobs: 50},
		{Devices: 512, Jobs: 200},
		{Devices: 1024, Jobs: 100},
		{Devices: 2048, Jobs: 200},
	}
}

// DCScaleAuditStride is the Options.AuditStride dcscale runs use: full
// per-job PTC audits every 32nd event (plus the unconditional terminal
// sweep) keep O(jobs·state) verification machinery from dominating a
// 200-job run without weakening what an error would fail.
const DCScaleAuditStride = 32

// DCScaleScenario builds the datacenter-scale workload: the
// hierarchical topology (devices must be a multiple of 8), a contended
// elastic arrival trace of the given job count, and three fail-stop
// failures spread across the cluster's racks.
func DCScaleScenario(devices, jobs int, seed int64) (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
	if jobs < 1 {
		panic(fmt.Sprintf("experiments: DCScaleScenario with %d jobs", jobs))
	}
	p := sched.DefaultArrivalParams()
	p.Jobs = jobs
	// Arrivals every ~2 min against ~90 min jobs: at 512 devices the
	// offered load oversubscribes the cluster (admission arbitrates,
	// preemption and elasticity engage); at 2048 the same trace leaves
	// headroom, so the latency comparison spans both regimes.
	p.MeanInterArrivalMin = 2
	p.MeanDurationMin = 90
	p.Sizes = []int{4, 8, 16, 32}
	p.SizeWeights = []float64{0.3, 0.35, 0.25, 0.1}
	arrivals, err := sched.Arrivals(p, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	models := multiJobModels()
	specs := coordinator.SpecsFromArrivals(arrivals, func(i int) *model.Model {
		return models[i%len(models)]
	})
	failures := []coordinator.FailureSpec{
		{TimeMin: 60, Device: cluster.DeviceID(7)},
		{TimeMin: 90, Device: cluster.DeviceID(devices/2 + 1)},
		{TimeMin: 120, Device: cluster.DeviceID(devices - 3)},
	}
	return cluster.Datacenter(devices), specs, failures
}

// DCScaleRow is one measured cell of the dcscale table.
type DCScaleRow struct {
	Devices int
	Jobs    int
	// Deterministic scheduling outcome (ModeSim): the -check gate
	// compares these exactly.
	Events      int
	Completed   int
	Preemptions int
	Plans       int
	MakespanMin float64
	MovedGB     float64
	// Per-decision latency percentiles in microseconds
	// (machine-dependent; gated only via the flatness ratio).
	P50us float64
	P90us float64
	P99us float64
}

// RunDCScale runs one dcscale cell and reduces it to a row.
func RunDCScale(devices, jobs int) DCScaleRow {
	topo, specs, failures := DCScaleScenario(devices, jobs, DCScaleSeed)
	res, err := coordinator.Run(topo, specs, failures, coordinator.Options{
		Placement:   true,
		AuditStride: DCScaleAuditStride,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: dcscale %dx%d: %v", devices, jobs, err))
	}
	completed := 0
	for _, js := range res.Jobs {
		if js.Completed {
			completed++
		}
	}
	return DCScaleRow{
		Devices:     devices,
		Jobs:        jobs,
		Events:      len(res.DecisionNs),
		Completed:   completed,
		Preemptions: res.Preemptions,
		Plans:       res.PlansValidated,
		MakespanMin: res.MakespanMin,
		MovedGB:     float64(res.MovedBytesTotal) / 1e9,
		P50us:       PercentileNs(res.DecisionNs, 0.50) / 1e3,
		P90us:       PercentileNs(res.DecisionNs, 0.90) / 1e3,
		P99us:       PercentileNs(res.DecisionNs, 0.99) / 1e3,
	}
}

// dcscaleFlatnessFactor bounds the dcscale headline: the p50
// per-decision latency at 2048 devices must stay within this factor of
// the 512-device p50 at the same 200-job population. A control plane
// that rescans the cluster per decision shows ~4x here (linear in
// devices); the incremental ledger summaries and epoch-stamped score
// cache keep it flat. dcscaleFlatnessSlackUs is an absolute allowance
// on top of the ratio, so scheduler noise on near-zero p50s cannot
// flake the gate.
const (
	dcscaleFlatnessFactor  = 3.0
	dcscaleFlatnessSlackUs = 250.0
)

// DCScaleHeadline is the flatness bar asserted by TestDCScaleFull and
// by tenplex-bench -check, on freshly measured p50s of the 512x200 and
// 2048x200 cells (committed percentiles are machine-dependent and never
// compared absolutely).
func DCScaleHeadline(p50SmallUs, p50BigUs float64) error {
	if p50BigUs > dcscaleFlatnessFactor*p50SmallUs+dcscaleFlatnessSlackUs {
		return fmt.Errorf("2048x200 p50_us: %.0f exceeds %.1fx the 512x200 p50 %.0f + %.0fus, latency is growing with cluster size",
			p50BigUs, dcscaleFlatnessFactor, p50SmallUs, dcscaleFlatnessSlackUs)
	}
	return nil
}

// PercentileNs returns the nearest-rank q-quantile (q in [0, 1]) of the
// samples, in nanoseconds. Zero when there are no samples.
func PercentileNs(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s)-1)*q + 0.5)
	return float64(s[idx])
}

// CompareDCScale sweeps the dcscale cells and tabulates per-decision
// latency against cluster size.
func CompareDCScale() ([]DCScaleRow, Table) {
	var rows []DCScaleRow
	for _, c := range DCScaleCells() {
		rows = append(rows, RunDCScale(c.Devices, c.Jobs))
	}
	tab := Table{
		ID:    "dcscale",
		Title: "Datacenter-scale control plane: per-decision latency vs cluster size",
		Columns: []string{"devices", "jobs", "events", "completed", "preempt",
			"plans", "makespan-min", "moved-GB", "p50-us", "p90-us", "p99-us"},
	}
	for _, r := range rows {
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", r.Devices),
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Preemptions),
			fmt.Sprintf("%d", r.Plans),
			fmt.Sprintf("%.1f", r.MakespanMin),
			fmt.Sprintf("%.2f", r.MovedGB),
			fmt.Sprintf("%.0f", r.P50us),
			fmt.Sprintf("%.0f", r.P90us),
			fmt.Sprintf("%.0f", r.P99us),
		})
	}
	var flat string
	if p512, p2048 := rows[1].P50us, rows[3].P50us; p512 > 0 {
		flat = fmt.Sprintf("flatness: p50 %.0fus at 512 devices vs %.0fus at 2048 devices (%.2fx for a 4x cluster)",
			p512, p2048, p2048/p512)
	}
	tab.Notes = append(tab.Notes,
		"hierarchical Datacenter topology: 4-GPU NVLink islands, 8-GPU nodes, 4-node racks, 8-rack pods, oversubscribed spine",
		"placement-aware ModeSim coordinator; per-decision latency is the event handler only (verification machinery excluded)",
		flat,
		"incremental ledger summaries + epoch-stamped score cache keep per-decision cost flat in cluster size",
	)
	return rows, tab
}
