package experiments

import (
	"fmt"

	"tenplex/internal/coordinator"
)

// The placement-comparison experiment quantifies the paper's central
// claim at the cluster level: reconfiguration cost depends on WHICH
// devices a job holds, not just how many. It replays the shared
// 32-device/12-job scenario — same arrival trace, models and injected
// failure — twice per workload: once with the count-based coordinator
// (lease sizes only, compact pick) and once placement-aware
// (Options.Placement: candidate device sets scored by
// perfmodel.ScorePlacement on the change each would commit, victims
// ranked by the bytes their planned shrink moves, forced shrinks taking
// the reshape that moves the fewest). Both the
// steady Poisson trace and its bursty variant (same offered load,
// clumped submissions) are measured.

// Placement is the placement table: steady/count, steady/placement,
// bursty/count, bursty/placement.
func Placement() Experiment {
	e := Experiment{
		ID:     "placement",
		Title:  "Count-based vs placement-aware scheduling (32 devices, 12 jobs)",
		Labels: []string{"workload", "mode"},
		Columns: []Column{
			{"makespan-min", "makespan_min", "%.1f", 0}, {"mean-util", "mean_cluster_utilization", "%.4f", 0},
			{"preemptions", "preemptions", "%d", 0}, {"reconfig-s", "aggregate_reconfig_seconds", "%.4f", 0},
			// The payload that crossed a device boundary: the headline
			// quantity placement-aware scheduling shrinks.
			{"moved-MB", "moved_bytes", "%.4f", 1e6},
			{"completed", "jobs_completed", "%d", 0},
		},
		Notes: notes(
			"same arrival trace, models and injected failure per workload; only Options.Placement changes",
			"placement mode scores candidate device sets (perfmodel.ScorePlacement) on the plan each would commit, evicts by planned bytes, and takes the least-moving feasible reshape on forced shrinks",
			"bursty rows use the same offered load with clumped submissions (sched.ArrivalParams.Burstiness)",
		),
	}
	for _, w := range []struct {
		name     string
		scenario Scenario
	}{{"steady", shared(MultiJobScenario)}, {"bursty", shared(MultiJobScenarioBursty)}} {
		for _, mode := range []string{"count", "placement"} {
			e.Variants = append(e.Variants, Replay(w.name+"/"+mode, []string{w.name, mode},
				w.scenario, coordinator.Options{Placement: mode == "placement"}))
		}
	}
	return e
}

// PlacementHeadline is the experiment's acceptance bar on the contended
// steady workload, asserted by TestPlacementComparisonAcceptance and by
// tenplex-bench -check: placement-aware scheduling keeps at least
// count-based utilization and strictly reduces the reconfiguration
// bytes moved. Reconfiguration downtime shifts completion times by
// microseconds of simulated time, so utilizations agree to ~1e-8; the
// 1e-6 band sits above that noise.
func PlacementHeadline(num func(key, cell string) float64) error {
	countUtil, placedUtil := num("steady/count", "mean_cluster_utilization"), num("steady/placement", "mean_cluster_utilization")
	if placedUtil < countUtil-1e-6 {
		return fmt.Errorf("steady/placement mean_cluster_utilization: %.6f fell below steady/count %.6f",
			placedUtil, countUtil)
	}
	if countMoved, placedMoved := num("steady/count", "moved_bytes"), num("steady/placement", "moved_bytes"); placedMoved >= countMoved {
		return fmt.Errorf("steady/placement moved_bytes: %.0f not strictly below steady/count %.0f",
			placedMoved, countMoved)
	}
	return nil
}
