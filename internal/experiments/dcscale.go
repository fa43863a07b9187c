package experiments

import (
	"fmt"
	"sort"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/sched"
)

// The dcscale experiment asks whether the control plane's per-decision
// latency stays flat as the cluster grows from 512 to 2048 devices, or
// grows linearly because every decision rescans the whole cluster. The
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
	return cluster.Datacenter(devices), arrivalSpecs(p, seed), []coordinator.FailureSpec{
		{TimeMin: 60, Device: cluster.DeviceID(7)},
		{TimeMin: 90, Device: cluster.DeviceID(devices/2 + 1)},
		{TimeMin: 120, Device: cluster.DeviceID(devices - 3)},
	}
}

// DCScale is the dcscale table, one variant per scenario size. The
// 512x200 and 2048x200 variants hold the job population fixed while the
// cluster grows 4x: the pair the flatness headline compares.
func DCScale() Experiment {
	e := Experiment{
		ID:     "dcscale",
		Title:  "Datacenter-scale control plane: per-decision latency vs cluster size",
		Labels: []string{"devices", "jobs"},
		Columns: []Column{
			{"events", "events", "%d", 0}, {"completed", "jobs_completed", "%d", 0},
			{"preempt", "preemptions", "%d", 0}, {"plans", "plans", "%d", 0},
			{"makespan-min", "makespan_min", "%.1f", 0}, {"moved-GB", "moved_gb", "%.2f", 0},
			{"p50-us", "p50_us", "%.0f", 0}, {"p90-us", "p90_us", "%.0f", 0}, {"p99-us", "p99_us", "%.0f", 0},
		},
		Notes: func(runs Runs) []string {
			var flat string
			if small, big := runs.Num("512x200", "p50_us"), runs.Num("2048x200", "p50_us"); small > 0 {
				flat = fmt.Sprintf("flatness: p50 %.0fus at 512 devices vs %.0fus at 2048 devices (%.2fx for a 4x cluster)",
					small, big, big/small)
			}
			return []string{
				"hierarchical Datacenter topology: 4-GPU NVLink islands, 8-GPU nodes, 4-node racks, 8-rack pods, oversubscribed spine",
				"placement-aware ModeSim coordinator; per-decision latency is the event handler only (verification machinery excluded)",
				flat,
				"incremental ledger summaries + epoch-stamped score cache keep per-decision cost flat in cluster size",
			}
		},
	}
	for _, size := range [][2]int{{512, 50}, {512, 200}, {1024, 100}, {2048, 200}} {
		devices, jobs := size[0], size[1]
		e.Variants = append(e.Variants, Replay(fmt.Sprintf("%dx%d", devices, jobs), []string{fmt.Sprint(devices), fmt.Sprint(jobs)},
			func() (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
				return DCScaleScenario(devices, jobs, DCScaleSeed)
			},
			coordinator.Options{Placement: true, AuditStride: DCScaleAuditStride}))
	}
	return e
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
// 2048x200 variants (committed percentiles are machine-dependent and
// never compared absolutely).
func DCScaleHeadline(num func(key, cell string) float64) error {
	small, big := num("512x200", "p50_us"), num("2048x200", "p50_us")
	if big > dcscaleFlatnessFactor*small+dcscaleFlatnessSlackUs {
		return fmt.Errorf("2048x200 p50_us: %.0f exceeds %.1fx the 512x200 p50 %.0f + %.0fus, latency is growing with cluster size",
			big, dcscaleFlatnessFactor, small, dcscaleFlatnessSlackUs)
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
