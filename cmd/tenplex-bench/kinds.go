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
	measure  func(budget time.Duration) (params map[string]any, rows experiments.Runs, err error)
	headline func(num func(key, metric string) float64) error
}

// kinds is every record tenplex-bench can emit (-record) and gate
// (-check), in the order -check walks them.
var kinds = []kind{
	{name: "planner", measure: measurePlanner},
	{name: "coordinator", measure: measureCoord, headline: func(num func(key, metric string) float64) error {
		if num("cluster", "trace_matches_sim") != 1 {
			return fmt.Errorf("cluster trace_matches_sim: paced wall-clock runs no longer reproduce the sim-mode trace, nondeterminism leaked into the runtime")
		}
		if s := num("cluster", "speedup"); s < speedupFloor {
			return fmt.Errorf("cluster speedup: %.2f below the floor %.2f, the parallel runtime (%.1f ms) fell behind the serialized loop (%.1f ms)",
				s, speedupFloor, num("cluster", "parallel_wall_ns")/1e6, num("cluster", "serial_wall_ns")/1e6)
		}
		return nil
	}},
	{name: "placement", headline: experiments.PlacementHeadline, measure: measureExperiment(experiments.Placement(),
		map[string]any{"seed": experiments.MultiJobSeed, "devices": 32, "jobs": 12})},
	{name: "hostile", headline: experiments.HostileHeadline, measure: measureExperiment(experiments.Hostile(),
		map[string]any{"seed": experiments.MultiJobSeed, "chaos_seed": experiments.HostileSeed, "devices": 32, "jobs": 12})},
	{name: "dcscale", headline: experiments.DCScaleHeadline, measure: measureExperiment(experiments.DCScale(),
		map[string]any{"seed": experiments.DCScaleSeed})},
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
func measurePlanner(budget time.Duration) (map[string]any, experiments.Runs, error) {
	var rows experiments.Runs
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
		rows = append(rows, experiments.Cells{
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
func measureCoord(time.Duration) (map[string]any, experiments.Runs, error) {
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
	cluster := experiments.ResultCells(res, specs).Pick("policy", "jobs_completed", "preemptions", "timeline_events",
		"plans_validated", "makespan_min", "aggregate_reconfig_seconds", "mean_cluster_utilization")
	cluster.Key = "cluster"
	cluster.Exact["trace_matches_sim"] = reflect.DeepEqual(res.Timeline, serial.Timeline) && reflect.DeepEqual(res.Timeline, parallel.Timeline)
	cluster.Timing = map[string]float64{"wall_ns_per_run": float64(res.WallNs)}
	cluster.Info = map[string]float64{
		"serial_wall_ns": float64(serial.WallNs), "parallel_wall_ns": float64(parallel.WallNs),
		"speedup": float64(serial.WallNs) / float64(parallel.WallNs),
	}
	return params, append(experiments.Runs{cluster}, experiments.JobCells(res)...), nil
}

// measureExperiment replays a cluster experiment and files, one row per
// variant, the cells its record keeps, each under the class the
// experiment's cell set gives it: scheduling outcomes are exact or sim
// and deterministic per seed, the dcscale latency percentiles are info
// and gated only through the headline.
func measureExperiment(e experiments.Experiment, params map[string]any) func(time.Duration) (map[string]any, experiments.Runs, error) {
	return func(time.Duration) (map[string]any, experiments.Runs, error) {
		runs, _, err := e.Run()
		if err != nil {
			return nil, nil, err
		}
		return params, e.Record(runs), nil
	}
}
