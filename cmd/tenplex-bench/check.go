package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tenplex/internal/experiments"
)

// The -check mode is the bench-regression gate: it re-runs the
// planner, datapath and coordinator benchmarks and compares them
// against the committed BENCH_*.json baselines. Two classes of checks
// apply:
//
//   - structural metrics (plan shapes, moved bytes, copy
//     amplification, simulated times, timeline shapes) are
//     deterministic per seed and must match the baseline exactly —
//     any drift is a behavioral regression, not noise;
//   - timing metrics (ns/op, MB/s, paced wall-clock makespans) are
//     re-measured on the checking machine and gated with a relative
//     tolerance, since the committed numbers may come from different
//     hardware.
//
// CI runs `tenplex-bench -check` on every PR, so neither the planner
// and datapath perf wins nor the coordinator's parallel-runtime
// behavior can silently regress.

// checkTolerance is the default relative slack for timing metrics:
// fail when throughput drops (or latency grows) by more than this
// fraction versus the committed baseline. Absolute timings vary a lot
// across machines and with background load (the baselines may come
// from different hardware than the checker), so the default only
// rejects >2x regressions; the structural checks, the speedup floor
// and trace equality are exact and machine-independent. Tighten with
// -check-tolerance on a quiet, baseline-matched machine.
const checkTolerance = 1.0

// speedupFloor gates the paced wall-clock comparison: the parallel
// runtime must never be meaningfully slower than the serialized loop.
// On multi-core hosts it is typically well above 1; on a single-core
// host the two converge (and an oversubscribed GOMAXPROCS adds
// scheduler thrash), so the floor only rejects real regressions — a
// lock or serialization bug shows up as parallel >> serial.
const speedupFloor = 0.85

type checkFailure struct {
	file string
	msg  string
}

// runCheck loads the BENCH baselines from dir and verifies the current
// tree against them. It returns the number of baselines checked.
func runCheck(dir string, tol float64, budget time.Duration) (int, []checkFailure, error) {
	var fails []checkFailure
	checked := 0
	for _, pat := range []string{"BENCH_planner*.json", "BENCH_datapath*.json", "BENCH_coordinator*.json", "BENCH_placement*.json", "BENCH_hostile*.json", "BENCH_dcscale*.json"} {
		matches, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return checked, nil, err
		}
		if len(matches) == 0 {
			continue
		}
		sort.Strings(matches)
		path := matches[len(matches)-1] // date-stamped names: lexically last is newest
		data, err := os.ReadFile(path)
		if err != nil {
			return checked, nil, err
		}
		var head struct {
			Schema string `json:"schema"`
		}
		if err := json.Unmarshal(data, &head); err != nil {
			return checked, nil, fmt.Errorf("%s: %w", path, err)
		}
		var fs []string
		switch head.Schema {
		case "tenplex-bench/planner/v1":
			fs, err = checkPlanner(data, tol, budget)
		case "tenplex-bench/datapath/v2":
			fs, err = checkDatapath(data, tol, budget)
		case "tenplex-bench/coordinator/v2":
			fs, err = checkCoordinator(data, tol)
		case "tenplex-bench/placement/v1":
			fs, err = checkPlacement(data)
		case "tenplex-bench/hostile/v1":
			fs, err = checkHostile(data)
		case "tenplex-bench/dcscale/v1":
			fs, err = checkDCScale(data)
		default:
			err = fmt.Errorf("unknown schema %q", head.Schema)
		}
		if err != nil {
			return checked, nil, fmt.Errorf("%s: %w", path, err)
		}
		checked++
		name := filepath.Base(path)
		for _, m := range fs {
			fails = append(fails, checkFailure{file: name, msg: m})
		}
		if len(fs) == 0 {
			fmt.Printf("check PASS %s (%s)\n", name, head.Schema)
		}
	}
	if checked == 0 {
		return 0, nil, fmt.Errorf("no BENCH_*.json baselines found in %s", dir)
	}
	return checked, fails, nil
}

func relWorse(measured, baseline float64) float64 {
	if baseline == 0 {
		return 0
	}
	return measured/baseline - 1
}

// checkPlanner re-measures every planner scenario and compares plan
// shape exactly and latency within tolerance.
func checkPlanner(data []byte, tol float64, budget time.Duration) ([]string, error) {
	var base benchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	want := map[string]scenarioStats{}
	for _, sc := range base.Scenarios {
		want[sc.Name] = sc
	}
	var fails []string
	seen := 0
	for _, sc := range experiments.PlannerScenarios() {
		b, ok := want[sc.Name]
		if !ok {
			continue // new scenario, no baseline yet
		}
		seen++
		got, err := measureScenario(sc, budget, 2)
		if err != nil {
			return nil, err
		}
		structural := [][3]any{
			{"assignments", got.Assignments, b.Assignments},
			{"noops", got.Noops, b.Noops},
			{"fetches", got.Fetches, b.Fetches},
			{"splits", got.Splits, b.Splits},
			{"merges", got.Merges, b.Merges},
			{"moved_bytes", got.MovedBytes, b.MovedBytes},
			{"storage_bytes", got.Storage, b.Storage},
		}
		for _, f := range structural {
			if fmt.Sprint(f[1]) != fmt.Sprint(f[2]) {
				fails = append(fails, fmt.Sprintf("planner %s: %s = %v, baseline %v (deterministic drift)",
					sc.Name, f[0], f[1], f[2]))
			}
		}
		if math.Abs(got.ReconfigSec-b.ReconfigSec) > 1e-9 {
			fails = append(fails, fmt.Sprintf("planner %s: simulated_reconfig_seconds = %v, baseline %v",
				sc.Name, got.ReconfigSec, b.ReconfigSec))
		}
		if w := relWorse(float64(got.NsPerOp), float64(b.NsPerOp)); w > tol {
			fails = append(fails, fmt.Sprintf("planner %s: ns_per_op %d is %.0f%% above baseline %d",
				sc.Name, got.NsPerOp, w*100, b.NsPerOp))
		}
	}
	if seen == 0 {
		fails = append(fails, "planner: no baseline scenario matches the current tree")
	}
	return fails, nil
}

// checkDatapath re-measures the transformer pipelines in process and
// the wire path over loopback servers, and compares copy amplification
// exactly and throughput within tolerance.
func checkDatapath(data []byte, tol float64, budget time.Duration) ([]string, error) {
	var base datapathRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	type key struct{ w, p string }
	want := map[key]experiments.DatapathRow{}
	for _, r := range base.Rows {
		want[key{r.Workload, r.Pipeline}] = r
	}
	rows, _, err := experiments.DatapathComparison(budget)
	if err != nil {
		return nil, err
	}
	restRows, err := experiments.DatapathREST(budget)
	if err != nil {
		return nil, err
	}
	rows = append(rows, restRows...)
	var fails []string
	seen := 0
	for _, got := range rows {
		b, ok := want[key{got.Workload, got.Pipeline}]
		if !ok {
			continue
		}
		seen++
		// Copy amplification is a deterministic property of the plan
		// and the pipeline: any increase is a real regression of the
		// zero-copy path, not measurement noise.
		if got.CopyAmp > b.CopyAmp*1.01 {
			fails = append(fails, fmt.Sprintf("datapath %s/%s: copy_amplification %.3f above baseline %.3f",
				got.Workload, got.Pipeline, got.CopyAmp, b.CopyAmp))
		}
		if got.PlanBytes != b.PlanBytes {
			fails = append(fails, fmt.Sprintf("datapath %s/%s: plan_bytes %d, baseline %d (deterministic drift)",
				got.Workload, got.Pipeline, got.PlanBytes, b.PlanBytes))
		}
		if w := relWorse(b.MBPerSecond, got.MBPerSecond); w > tol {
			fails = append(fails, fmt.Sprintf("datapath %s/%s: throughput %.0f MB/s is a %.0f%% slowdown vs baseline %.0f",
				got.Workload, got.Pipeline, got.MBPerSecond, w*100, b.MBPerSecond))
		}
	}
	if seen == 0 {
		fails = append(fails, "datapath: no baseline row matches the current tree")
	}
	return fails, nil
}

// checkCoordinator re-runs the multi-job scenario and compares the
// deterministic cluster metrics exactly, then re-measures the paced
// wall-clock comparison on this machine.
func checkCoordinator(data []byte, tol float64) ([]string, error) {
	var base coordRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	got, err := measureCoord()
	if err != nil {
		return nil, err
	}
	var fails []string
	exact := [][3]any{
		{"policy", got.Policy, base.Policy},
		{"jobs_completed", got.Completed, base.Completed},
		{"preemptions", got.Preemptions, base.Preemptions},
		{"timeline_events", got.TimelineEvents, base.TimelineEvents},
		{"plans_validated", got.PlansValidated, base.PlansValidated},
	}
	for _, f := range exact {
		if fmt.Sprint(f[1]) != fmt.Sprint(f[2]) {
			fails = append(fails, fmt.Sprintf("coordinator: %s = %v, baseline %v (deterministic drift)",
				f[0], f[1], f[2]))
		}
	}
	for _, f := range [][3]float64{
		{got.MakespanMin, base.MakespanMin, 1e-6},
		{got.MeanUtilization, base.MeanUtilization, 1e-6},
		{got.ReconfigSec, base.ReconfigSec, 1e-9},
	} {
		if math.Abs(f[0]-f[1]) > f[2] {
			fails = append(fails, fmt.Sprintf("coordinator: simulated metric %v drifted from baseline %v", f[0], f[1]))
		}
	}
	if !got.WallClock.TraceMatchesSim {
		fails = append(fails, "coordinator: paced wall-clock runs no longer reproduce the sim-mode trace "+
			"(nondeterminism leaked into the runtime)")
	}
	if got.WallClock.Speedup < speedupFloor {
		fails = append(fails, fmt.Sprintf(
			"coordinator: parallel wall-clock runtime is slower than the serialized loop (speedup %.2f < %.2f; serial %.1fms, parallel %.1fms)",
			got.WallClock.Speedup, speedupFloor,
			float64(got.WallClock.SerialWallNs)/1e6, float64(got.WallClock.ParallelWallNs)/1e6))
	}
	if w := relWorse(float64(got.WallNs), float64(base.WallNs)); w > tol {
		fails = append(fails, fmt.Sprintf("coordinator: wall_ns_per_run %.1fms is %.0f%% above baseline %.1fms",
			float64(got.WallNs)/1e6, w*100, float64(base.WallNs)/1e6))
	}
	return fails, nil
}

// checkPlacement re-runs the placement comparison, compares every
// (deterministic) cell against the baseline exactly, and re-asserts
// the experiment's headline: on the contended steady workload,
// placement-aware scheduling keeps at least count-based utilization
// while strictly reducing the aggregate reconfiguration bytes moved.
func checkPlacement(data []byte) ([]string, error) {
	var base placementRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	got, err := measurePlacement()
	if err != nil {
		return nil, err
	}
	type key struct{ w, m string }
	want := map[key]experiments.PlacementRow{}
	for _, r := range base.Rows {
		want[key{r.Workload, r.Mode}] = r
	}
	var fails []string
	if len(got.Rows) != len(base.Rows) {
		fails = append(fails, fmt.Sprintf("placement: %d cells measured, baseline has %d",
			len(got.Rows), len(base.Rows)))
	}
	cells := map[key]experiments.PlacementRow{}
	for _, g := range got.Rows {
		cells[key{g.Workload, g.Mode}] = g
		b, ok := want[key{g.Workload, g.Mode}]
		if !ok {
			fails = append(fails, fmt.Sprintf("placement %s/%s: cell missing from the baseline",
				g.Workload, g.Mode))
			continue
		}
		exact := [][3]any{
			{"preemptions", g.Preemptions, b.Preemptions},
			{"moved_bytes", g.MovedBytes, b.MovedBytes},
			{"jobs_completed", g.Completed, b.Completed},
		}
		for _, f := range exact {
			if fmt.Sprint(f[1]) != fmt.Sprint(f[2]) {
				fails = append(fails, fmt.Sprintf("placement %s/%s: %s = %v, baseline %v (deterministic drift)",
					g.Workload, g.Mode, f[0], f[1], f[2]))
			}
		}
		for _, f := range [][3]float64{
			{g.MakespanMin, b.MakespanMin, 1e-6},
			{g.MeanUtilization, b.MeanUtilization, 1e-9},
			{g.ReconfigSec, b.ReconfigSec, 1e-9},
		} {
			if math.Abs(f[0]-f[1]) > f[2] {
				fails = append(fails, fmt.Sprintf("placement %s/%s: simulated metric %v drifted from baseline %v",
					g.Workload, g.Mode, f[0], f[1]))
			}
		}
	}
	count, placed := cells[key{"steady", "count"}], cells[key{"steady", "placement"}]
	if count.Workload == "" || placed.Workload == "" {
		fails = append(fails, "placement: steady rows missing from the comparison")
		return fails, nil
	}
	// Reconfiguration downtime shifts completion times by microseconds
	// of simulated time, so utilizations agree to ~1e-8; the headline
	// "never loses utilization" uses a 1e-6 band above that noise.
	if placed.MeanUtilization < count.MeanUtilization-1e-6 {
		fails = append(fails, fmt.Sprintf("placement: steady utilization %.6f fell below count-based %.6f",
			placed.MeanUtilization, count.MeanUtilization))
	}
	if placed.MovedBytes >= count.MovedBytes {
		fails = append(fails, fmt.Sprintf("placement: steady moved_bytes %d not strictly below count-based %d",
			placed.MovedBytes, count.MovedBytes))
	}
	return fails, nil
}

// checkHostile re-runs the hostile-cluster comparison, compares every
// (deterministic) cell against the baseline exactly, and re-asserts
// the experiment's headline: at the highest store fault rate the
// capped retry budget completes strictly more jobs than the fail-fast
// policy.
func checkHostile(data []byte) ([]string, error) {
	var base hostileRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	got, err := measureHostile()
	if err != nil {
		return nil, err
	}
	type key struct {
		rate   float64
		policy string
	}
	want := map[key]experiments.HostileRow{}
	for _, r := range base.Rows {
		want[key{r.FaultRate, r.Policy}] = r
	}
	var fails []string
	if len(got.Rows) != len(base.Rows) {
		fails = append(fails, fmt.Sprintf("hostile: %d cells measured, baseline has %d",
			len(got.Rows), len(base.Rows)))
	}
	cells := map[key]experiments.HostileRow{}
	var worst float64
	for _, g := range got.Rows {
		cells[key{g.FaultRate, g.Policy}] = g
		if g.FaultRate > worst {
			worst = g.FaultRate
		}
		b, ok := want[key{g.FaultRate, g.Policy}]
		if !ok {
			fails = append(fails, fmt.Sprintf("hostile %.3f/%s: cell missing from the baseline",
				g.FaultRate, g.Policy))
			continue
		}
		exact := [][3]any{
			{"jobs_completed", g.Completed, b.Completed},
			{"retries", g.Retries, b.Retries},
			{"requeues", g.Requeues, b.Requeues},
			{"quarantined_devices", g.Quarantined, b.Quarantined},
			{"moved_bytes", g.MovedBytes, b.MovedBytes},
			{"retry_bytes", g.RetryBytes, b.RetryBytes},
		}
		for _, f := range exact {
			if fmt.Sprint(f[1]) != fmt.Sprint(f[2]) {
				fails = append(fails, fmt.Sprintf("hostile %.3f/%s: %s = %v, baseline %v (deterministic drift)",
					g.FaultRate, g.Policy, f[0], f[1], f[2]))
			}
		}
		for _, f := range [][3]float64{
			{g.MakespanMin, b.MakespanMin, 1e-6},
			{g.Goodput, b.Goodput, 1e-9},
			{g.RecoverySec, b.RecoverySec, 1e-6},
			{g.MeanRecoverySec, b.MeanRecoverySec, 1e-6},
		} {
			if math.Abs(f[0]-f[1]) > f[2] {
				fails = append(fails, fmt.Sprintf("hostile %.3f/%s: simulated metric %v drifted from baseline %v",
					g.FaultRate, g.Policy, f[0], f[1]))
			}
		}
	}
	off, on := cells[key{worst, "retry-off"}], cells[key{worst, "retry-on"}]
	if off.Policy == "" || on.Policy == "" {
		fails = append(fails, "hostile: highest-rate rows missing from the comparison")
		return fails, nil
	}
	if on.Completed <= off.Completed {
		fails = append(fails, fmt.Sprintf(
			"hostile: at fault rate %.3f retry-on completed %d jobs, not strictly more than retry-off's %d",
			worst, on.Completed, off.Completed))
	}
	if on.Retries == 0 {
		fails = append(fails, fmt.Sprintf(
			"hostile: at fault rate %.3f retry-on recorded no retries — the retry budget was never exercised",
			worst))
	}
	return fails, nil
}

// dcscaleFlatnessFactor gates the dcscale headline: the p50
// per-decision latency at 2048 devices must stay within this factor of
// the 512-device p50 at the same 200-job population. A control plane
// that rescans the cluster per decision shows ~4x here (linear in
// devices); the incremental ledger summaries and epoch-stamped score
// cache keep it flat.
const dcscaleFlatnessFactor = 3.0

// dcscaleFlatnessSlackUs is an absolute allowance on top of the ratio,
// so scheduler noise on near-zero p50s cannot flake the gate.
const dcscaleFlatnessSlackUs = 250.0

// checkDCScale re-runs the datacenter-scale sweep, compares every
// deterministic scheduling outcome against the baseline exactly, and
// re-asserts the flatness headline on freshly measured latencies
// (committed percentile values are machine-dependent and never
// compared absolutely).
func checkDCScale(data []byte) ([]string, error) {
	var base dcscaleRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, err
	}
	got := measureDCScale()
	type key struct{ devices, jobs int }
	want := map[key]experiments.DCScaleRow{}
	for _, r := range base.Rows {
		want[key{r.Devices, r.Jobs}] = r
	}
	var fails []string
	if len(got.Rows) != len(base.Rows) {
		fails = append(fails, fmt.Sprintf("dcscale: %d cells measured, baseline has %d",
			len(got.Rows), len(base.Rows)))
	}
	cells := map[key]experiments.DCScaleRow{}
	for _, g := range got.Rows {
		cells[key{g.Devices, g.Jobs}] = g
		b, ok := want[key{g.Devices, g.Jobs}]
		if !ok {
			fails = append(fails, fmt.Sprintf("dcscale %dx%d: cell missing from the baseline",
				g.Devices, g.Jobs))
			continue
		}
		exact := [][3]any{
			{"events", g.Events, b.Events},
			{"jobs_completed", g.Completed, b.Completed},
			{"preemptions", g.Preemptions, b.Preemptions},
			{"plans", g.Plans, b.Plans},
		}
		for _, f := range exact {
			if fmt.Sprint(f[1]) != fmt.Sprint(f[2]) {
				fails = append(fails, fmt.Sprintf("dcscale %dx%d: %s = %v, baseline %v (deterministic drift)",
					g.Devices, g.Jobs, f[0], f[1], f[2]))
			}
		}
		for _, f := range [][3]float64{
			{g.MakespanMin, b.MakespanMin, 1e-6},
			{g.MovedGB, b.MovedGB, 1e-9},
		} {
			if math.Abs(f[0]-f[1]) > f[2] {
				fails = append(fails, fmt.Sprintf("dcscale %dx%d: simulated metric %v drifted from baseline %v",
					g.Devices, g.Jobs, f[0], f[1]))
			}
		}
	}
	small, big := cells[key{512, 200}], cells[key{2048, 200}]
	if small.Devices == 0 || big.Devices == 0 {
		fails = append(fails, "dcscale: 512x200 / 2048x200 flatness cells missing from the sweep")
		return fails, nil
	}
	if limit := dcscaleFlatnessFactor*small.P50us + dcscaleFlatnessSlackUs; big.P50us > limit {
		fails = append(fails, fmt.Sprintf(
			"dcscale: p50 per-decision latency %.0fus at 2048 devices exceeds %.1fx the 512-device p50 %.0fus — latency is growing with cluster size",
			big.P50us, dcscaleFlatnessFactor, small.P50us))
	}
	return fails, nil
}
