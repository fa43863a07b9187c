package main

import (
	"fmt"
	"reflect"
	"time"

	"tenplex/internal/coordinator"
	"tenplex/internal/core"
	"tenplex/internal/experiments"
	"tenplex/internal/netsim"
)

// kind is one BENCH record kind: how its rows are measured (each metric
// filed under the class that decides how -check compares it, see
// record.go) and the experiment's headline, asserted on every freshly
// measured record. The headline predicates are the ones the
// internal/experiments acceptance tests assert.
type kind struct {
	name     string
	measure  func(budget time.Duration) (params map[string]any, rows []row, err error)
	headline func(m *cells) error
}

// kinds is every record tenplex-bench can emit (-record) and gate
// (-check), in the order -check walks them.
var kinds = []kind{
	{name: "planner", measure: measurePlanner},
	{name: "coordinator", measure: measureCoord, headline: func(m *cells) error {
		if m.num("cluster", "trace_matches_sim") != 1 {
			return fmt.Errorf("cluster trace_matches_sim: paced wall-clock runs no longer reproduce the sim-mode trace, nondeterminism leaked into the runtime")
		}
		if s := m.num("cluster", "speedup"); s < speedupFloor {
			return fmt.Errorf("cluster speedup: %.2f below the floor %.2f, the parallel runtime (%.1f ms) fell behind the serialized loop (%.1f ms)",
				s, speedupFloor, m.num("cluster", "parallel_wall_ns")/1e6, m.num("cluster", "serial_wall_ns")/1e6)
		}
		return nil
	}},
	{name: "placement", measure: measurePlacement, headline: func(m *cells) error {
		return experiments.PlacementHeadline(
			m.num("steady/count", "mean_cluster_utilization"), m.num("steady/placement", "mean_cluster_utilization"),
			m.num("steady/count", "moved_bytes"), m.num("steady/placement", "moved_bytes"))
	}},
	{name: "hostile", measure: measureHostile, headline: func(m *cells) error {
		worst := experiments.HostileFaultRates[len(experiments.HostileFaultRates)-1]
		off, on := hostileKey(worst, "retry-off"), hostileKey(worst, "retry-on")
		if err := experiments.HostileHeadline(m.num(off, "jobs_completed"), m.num(on, "jobs_completed"), m.num(on, "retries")); err != nil {
			return fmt.Errorf("%s %w", on, err)
		}
		return nil
	}},
	{name: "dcscale", measure: measureDCScale, headline: func(m *cells) error {
		return experiments.DCScaleHeadline(m.num("512x200", "p50_us"), m.num("2048x200", "p50_us"))
	}},
}

// timeIters runs fn until the budget elapses, at least twice, and
// returns the mean duration of a run and how many there were.
func timeIters(budget time.Duration, fn func() error) (float64, int, error) {
	var elapsed time.Duration
	iters := 0
	for iters < 2 || elapsed < budget {
		t0 := time.Now()
		err := fn()
		elapsed += time.Since(t0)
		if err != nil {
			return 0, iters, err
		}
		iters++
	}
	return float64(elapsed.Nanoseconds() / int64(iters)), iters, nil
}

// measurePlanner times, on every planner scenario, core.GeneratePlan
// alone (ns_per_op) and the whole sequence the coordinator runs per
// priced change, BuildPTC through netsim.Simulate
// (plan_change_ns_per_op), each under its own budget. The plan's shape
// goes under exact and its netsim-priced reconfiguration time under sim.
func measurePlanner(budget time.Duration) (map[string]any, []row, error) {
	var rows []row
	for _, sc := range experiments.PlannerScenarios() {
		var plan *core.Plan
		planNs, iters, err := timeIters(budget, func() (err error) {
			plan, err = core.GeneratePlan(sc.From, sc.To, sc.Opts)
			return err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		changeNs, changeIters, err := timeIters(budget, sc.PlanChange)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: plan change: %w", sc.Name, err)
		}
		if err := plan.Validate(); err != nil {
			return nil, nil, fmt.Errorf("%s: invalid plan: %w", sc.Name, err)
		}
		st := plan.Stats(sc.Topo)
		rows = append(rows, row{
			Key: sc.Name,
			Exact: map[string]any{
				"assignments": st.Assignments, "noops": st.Noops, "fetches": st.Fetches,
				"splits": st.Splits, "merges": st.Merges,
				"moved_bytes": st.MovedBytes, "storage_bytes": st.StorageBytes,
			},
			Sim:    map[string]float64{"simulated_reconfig_seconds": netsim.Simulate(sc.Topo, plan.Flows(sc.Topo)).Seconds},
			Timing: map[string]float64{"ns_per_op": planNs, "plan_change_ns_per_op": changeNs},
			Info: map[string]float64{
				"devices": float64(sc.Devices), "iters": float64(iters), "plan_change_iters": float64(changeIters),
			},
		})
	}
	return nil, rows, nil
}

// coordWallWorkers is the pool size of the parallel wall-clock run.
const coordWallWorkers = 8

// coordWallScale paces the wall-clock runs: one simulated minute of
// schedule per 100µs of real time. At this pace the 12-job scenario's
// schedule is shorter than its total state-management work, so the
// single-threaded loop goes work-bound — every transform delays the
// clock — while the parallel runtime keeps the heap on schedule by
// overlapping independent jobs' work across the pool. The resulting
// speedup scales with the host's cores (on a single-core host the two
// converge, which speedupFloor accounts for).
const coordWallScale = 100 * time.Microsecond

// speedupFloor gates the paced wall-clock comparison: the parallel
// runtime must never be meaningfully slower than the serialized loop.
// On multi-core hosts it is typically well above 1; on a single-core
// host the two converge (and an oversubscribed GOMAXPROCS adds
// scheduler thrash), so the floor only rejects real regressions — a
// lock or serialization bug shows up as parallel >> serial.
const speedupFloor = 0.85

// measureCoord runs the shared 32-device multi-job scenario three ways:
// the deterministic sim mode (the "cluster" row's exact and sim cells,
// one row per job, and wall_ns_per_run — the cost of the control plane,
// not of the simulated cluster), then paced on the real clock with the
// serialized single-threaded loop (Workers=1) and with the parallel
// runtime. Both paced runs must reproduce the sim-mode timeline event
// for event (trace_matches_sim).
func measureCoord(time.Duration) (map[string]any, []row, error) {
	topo, specs, failures := experiments.MultiJobScenario(32, 12, experiments.MultiJobSeed)
	// Every mode keeps the run with the smallest WallNs over 3 attempts —
	// the one measurement policy every figure in the record shares.
	var runs [3]coordinator.Result
	for i, opts := range []coordinator.Options{
		{},
		{Mode: coordinator.ModeWall, Workers: 1, WallScale: coordWallScale},
		{Mode: coordinator.ModeWall, Workers: coordWallWorkers, WallScale: coordWallScale},
	} {
		for attempt := 0; attempt < 3; attempt++ {
			r, err := coordinator.Run(topo, specs, failures, opts)
			if err != nil {
				return nil, nil, err
			}
			if attempt == 0 || r.WallNs < runs[i].WallNs {
				runs[i] = r
			}
		}
	}
	res, serial, parallel := runs[0], runs[1], runs[2]
	params := map[string]any{
		"seed": experiments.MultiJobSeed, "devices": topo.NumDevices(), "jobs": len(specs),
		"workers": coordWallWorkers, "time_scale_us_per_sim_min": float64(coordWallScale) / float64(time.Microsecond),
	}
	completed := 0
	var jobs []row
	for _, js := range res.Jobs {
		if js.Completed {
			completed++
		}
		jobs = append(jobs, row{
			Key: js.Name,
			Exact: map[string]any{
				"model": js.Model, "requested_gpus": js.GPUs, "resizes": js.Resizes,
				"moved_bytes": js.MovedBytes, "completed": js.Completed,
			},
			Sim: map[string]float64{
				"arrival_min": js.ArrivalMin, "admit_min": js.AdmitMin, "done_min": js.DoneMin,
				"reconfig_seconds": js.ReconfigSec,
			},
		})
	}
	cluster := row{
		Key: "cluster",
		Exact: map[string]any{
			"policy": res.Policy, "jobs_completed": completed, "preemptions": res.Preemptions,
			"timeline_events": len(res.Timeline), "plans_validated": res.PlansValidated,
			"trace_matches_sim": reflect.DeepEqual(res.Timeline, serial.Timeline) &&
				reflect.DeepEqual(res.Timeline, parallel.Timeline),
		},
		Sim: map[string]float64{
			"makespan_min": res.MakespanMin, "aggregate_reconfig_seconds": res.ReconfigSecTotal,
			"mean_cluster_utilization": res.MeanUtilization,
		},
		Timing: map[string]float64{"wall_ns_per_run": float64(res.WallNs)},
		Info: map[string]float64{
			"serial_wall_ns": float64(serial.WallNs), "parallel_wall_ns": float64(parallel.WallNs),
			"speedup": float64(serial.WallNs) / float64(parallel.WallNs),
		},
	}
	return params, append([]row{cluster}, jobs...), nil
}

// measurePlacement replays the shared 32-device/12-job scenario
// count-based and placement-aware, under steady and bursty arrivals.
// Every metric is deterministic per seed.
func measurePlacement(time.Duration) (map[string]any, []row, error) {
	cmp, err := experiments.ComparePlacement(32, 12, experiments.MultiJobSeed)
	if err != nil {
		return nil, nil, err
	}
	var rows []row
	for _, r := range cmp {
		rows = append(rows, row{
			Key:   r.Workload + "/" + r.Mode,
			Exact: map[string]any{"preemptions": r.Preemptions, "moved_bytes": r.MovedBytes, "jobs_completed": r.Completed},
			Sim: map[string]float64{
				"makespan_min": r.MakespanMin, "mean_cluster_utilization": r.MeanUtilization,
				"aggregate_reconfig_seconds": r.ReconfigSec,
			},
		})
	}
	return map[string]any{"seed": experiments.MultiJobSeed, "devices": 32, "jobs": 12}, rows, nil
}

// hostileKey names one (fault rate, recovery policy) cell.
func hostileKey(rate float64, policy string) string { return fmt.Sprintf("%g/%s", rate, policy) }

// measureHostile replays the same scenario under the canonical chaos
// schedule at each store fault rate, once fail-fast and once with the
// capped retry budget. Every metric is simulated and deterministic per
// (scenario seed, chaos seed).
func measureHostile(time.Duration) (map[string]any, []row, error) {
	cmp, err := experiments.CompareHostile(32, 12, experiments.MultiJobSeed)
	if err != nil {
		return nil, nil, err
	}
	var rows []row
	for _, r := range cmp {
		rows = append(rows, row{
			Key: hostileKey(r.FaultRate, r.Policy),
			Exact: map[string]any{
				"jobs_completed": r.Completed, "retries": r.Retries, "requeues": r.Requeues,
				"quarantined_devices": r.Quarantined, "moved_bytes": r.MovedBytes, "retry_bytes": r.RetryBytes,
			},
			Sim: map[string]float64{
				"goodput": r.Goodput, "makespan_min": r.MakespanMin,
				"recovery_seconds": r.RecoverySec, "mean_recovery_latency_seconds": r.MeanRecoverySec,
			},
		})
	}
	params := map[string]any{
		"seed": experiments.MultiJobSeed, "chaos_seed": experiments.HostileSeed, "devices": 32, "jobs": 12,
	}
	return params, rows, nil
}

// measureDCScale sweeps the 512/1024/2048-device, 50–200-job ModeSim
// scenarios on the hierarchical Datacenter topology. The scheduling
// outcomes are deterministic per seed; the per-decision latency
// percentiles are machine-dependent, so they are info cells and only
// their flatness (the headline) is gated.
func measureDCScale(time.Duration) (map[string]any, []row, error) {
	cmp, _ := experiments.CompareDCScale()
	var rows []row
	for _, r := range cmp {
		rows = append(rows, row{
			Key: fmt.Sprintf("%dx%d", r.Devices, r.Jobs),
			Exact: map[string]any{
				"events": r.Events, "jobs_completed": r.Completed, "preemptions": r.Preemptions, "plans": r.Plans,
			},
			Sim:  map[string]float64{"makespan_min": r.MakespanMin, "moved_gb": r.MovedGB},
			Info: map[string]float64{"p50_us": r.P50us, "p90_us": r.P90us, "p99_us": r.P99us},
		})
	}
	return map[string]any{"seed": experiments.DCScaleSeed}, rows, nil
}
