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
// perfmodel.ScorePlacement, victims scored by netsim eviction cost,
// forced shrinks taking the cheapest feasible reshape). Both the
// steady Poisson trace and its bursty variant (same offered load,
// clumped submissions) are measured.

// PlacementRow is one (workload, mode) cell of the comparison.
type PlacementRow struct {
	// Workload is "steady" (Poisson arrivals) or "bursty".
	Workload string `json:"workload"`
	// Mode is "count" (placement off) or "placement".
	Mode            string  `json:"mode"`
	MakespanMin     float64 `json:"makespan_min"`
	MeanUtilization float64 `json:"mean_cluster_utilization"`
	Preemptions     int     `json:"preemptions"`
	ReconfigSec     float64 `json:"aggregate_reconfig_seconds"`
	// MovedBytes is the aggregate reconfiguration payload that crossed
	// a device boundary — the headline quantity placement-aware
	// scheduling shrinks.
	MovedBytes int64 `json:"moved_bytes"`
	Completed  int   `json:"jobs_completed"`
}

// ComparePlacement runs the multi-job scenario per (workload, mode)
// cell and returns four rows: steady/count, steady/placement,
// bursty/count, bursty/placement.
func ComparePlacement(devices, jobs int, seed int64) ([]PlacementRow, error) {
	var rows []PlacementRow
	for _, workload := range []string{"steady", "bursty"} {
		for _, mode := range []string{"count", "placement"} {
			var res coordinator.Result
			var err error
			scenario := MultiJobScenario
			if workload == "bursty" {
				scenario = MultiJobScenarioBursty
			}
			topo, specs, failures := scenario(devices, jobs, seed)
			res, err = coordinator.Run(topo, specs, failures, coordinator.Options{
				Placement: mode == "placement",
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: placement %s/%s: %w", workload, mode, err)
			}
			row := PlacementRow{
				Workload:        workload,
				Mode:            mode,
				MakespanMin:     res.MakespanMin,
				MeanUtilization: res.MeanUtilization,
				Preemptions:     res.Preemptions,
				ReconfigSec:     res.ReconfigSecTotal,
				MovedBytes:      res.MovedBytesTotal,
			}
			for _, js := range res.Jobs {
				if js.Completed {
					row.Completed++
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PlacementHeadline is the experiment's acceptance bar on the contended
// steady workload, asserted by TestPlacementComparisonAcceptance and by
// tenplex-bench -check: placement-aware scheduling keeps at least
// count-based utilization and strictly reduces the reconfiguration
// bytes moved. Reconfiguration downtime shifts completion times by
// microseconds of simulated time, so utilizations agree to ~1e-8; the
// 1e-6 band sits above that noise.
func PlacementHeadline(countUtil, placedUtil, countMoved, placedMoved float64) error {
	if placedUtil < countUtil-1e-6 {
		return fmt.Errorf("steady/placement mean_cluster_utilization: %.6f fell below steady/count %.6f",
			placedUtil, countUtil)
	}
	if placedMoved >= countMoved {
		return fmt.Errorf("steady/placement moved_bytes: %.0f not strictly below steady/count %.0f",
			placedMoved, countMoved)
	}
	return nil
}

// PlacementComparison tabulates ComparePlacement on the shared
// 32-device/12-job scenario.
func PlacementComparison() ([]PlacementRow, Table, error) {
	rows, err := ComparePlacement(32, 12, MultiJobSeed)
	if err != nil {
		return nil, Table{}, err
	}
	tab := Table{
		ID:    "placement",
		Title: "Count-based vs placement-aware scheduling (32 devices, 12 jobs)",
		Columns: []string{"workload", "mode", "makespan-min", "mean-util",
			"preemptions", "reconfig-s", "moved-MB", "completed"},
	}
	for _, r := range rows {
		tab.Rows = append(tab.Rows, []string{
			r.Workload, r.Mode,
			fmt.Sprintf("%.1f", r.MakespanMin),
			fmt.Sprintf("%.4f", r.MeanUtilization),
			fmt.Sprintf("%d", r.Preemptions),
			fmt.Sprintf("%.4f", r.ReconfigSec),
			fmt.Sprintf("%.4f", float64(r.MovedBytes)/1e6),
			fmt.Sprintf("%d", r.Completed),
		})
	}
	tab.Notes = append(tab.Notes,
		"same arrival trace, models and injected failure per workload; only Options.Placement changes",
		"placement mode scores candidate device sets (perfmodel.ScorePlacement), evicts by netsim cost, and takes the cheapest feasible reshape on forced shrinks",
		"bursty rows use the same offered load with clumped submissions (sched.ArrivalParams.Burstiness)",
	)
	return rows, tab, nil
}
