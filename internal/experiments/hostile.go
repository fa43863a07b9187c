package experiments

import (
	"fmt"

	"tenplex/internal/chaos"
	"tenplex/internal/coordinator"
)

// The hostile-cluster experiment measures what graceful degradation
// buys on a cluster that actively misbehaves: the shared 32-device/
// 12-job scenario runs under a fixed chaos schedule (a flapping
// device, a spot reclamation with a drain window, a degraded worker
// NIC) while the per-operation store fault rate sweeps from benign to
// hostile. Each rate runs twice — retry-off (single transform attempt;
// any injected fault aborts the reconfiguration, rolls the job back to
// its checkpoint and requeues it) and retry-on (a capped backoff
// budget of attempts absorbs transient faults before degrading). Every
// metric is simulated and deterministic per seed, so the bench gate
// compares cells exactly and asserts the headline: at the highest
// fault rate the retry budget completes strictly more jobs.

// HostileSeed keys the chaos decision streams of the hostile
// comparison (and the chaos regression tests).
const HostileSeed = 7

// HostileFaultRates is the per-operation store fault rate sweep, benign
// to hostile.
var HostileFaultRates = []float64{0, 0.005, 0.02}

// HostilePlan is the canonical hostile-cluster schedule at the given
// store fault rate: device 13 flaps three times (quarantine bait for
// the suspicion detector), device 3 is spot-reclaimed with an 8-minute
// drain window, and worker 1's NIC runs at quarter bandwidth for two
// hours.
func HostilePlan(rate float64) *chaos.Plan {
	return &chaos.Plan{
		Seed:           HostileSeed,
		StoreFaultRate: rate,
		Flaps: []chaos.DeviceFlap{
			{Device: 13, FailMin: 45, DownMin: 20, Cycles: 3, PeriodMin: 60},
		},
		Reclaims: []chaos.SpotReclaim{
			{Device: 3, NoticeMin: 50, WindowMin: 8},
		},
		LinkDegrades: []chaos.LinkDegrade{
			{Worker: 1, StartMin: 30, DurationMin: 120, Factor: 0.25},
		},
	}
}

// HostileRecovery returns the recovery policy of one comparison arm.
// Both arms share the requeue budget and the suspicion threshold; only
// the transform attempt budget differs.
func HostileRecovery(retry bool) coordinator.RecoveryPolicy {
	pol := coordinator.RecoveryPolicy{
		MaxAttempts:        1,
		MaxRequeues:        2,
		SuspicionThreshold: 2,
	}
	if retry {
		pol.MaxAttempts = 4
		pol.BackoffSec = 2
		pol.MaxBackoffSec = 16
	}
	return pol
}

// HostileRow is one (fault rate, recovery policy) cell.
type HostileRow struct {
	// FaultRate is the per-operation store fault probability during
	// armed transform attempts.
	FaultRate float64 `json:"store_fault_rate"`
	// Policy is "retry-off" (single attempt) or "retry-on" (capped
	// backoff budget).
	Policy string `json:"policy"`
	// Completed counts jobs that finished bit-verified.
	Completed int `json:"jobs_completed"`
	// Goodput is completed training minutes delivered per cluster
	// minute: the sum of completed jobs' durations over the makespan.
	Goodput     float64 `json:"goodput"`
	MakespanMin float64 `json:"makespan_min"`
	// Retries counts transform attempts beyond each change's first;
	// Requeues counts aborted reconfigurations that fell back to the
	// checkpoint and re-entered the admission queue.
	Retries  int `json:"retries"`
	Requeues int `json:"requeues"`
	// Quarantined counts devices the suspicion detector refused to
	// re-admit.
	Quarantined int `json:"quarantined_devices"`
	// MovedBytes is the total reconfiguration payload; RetryBytes the
	// slice of it re-moved by attempts beyond the first — the waste the
	// retry budget pays for survival.
	MovedBytes int64 `json:"moved_bytes"`
	RetryBytes int64 `json:"retry_bytes"`
	// RecoverySec is downtime charged beyond first-attempt cost (repeat
	// transforms, backoff waits, aborted work); MeanRecoverySec divides
	// it over the retry/requeue incidents that caused it.
	RecoverySec     float64 `json:"recovery_seconds"`
	MeanRecoverySec float64 `json:"mean_recovery_latency_seconds"`
}

// CompareHostile sweeps HostileFaultRates x {retry-off, retry-on} over
// the shared multi-job scenario under the canonical hostile plan.
func CompareHostile(devices, jobs int, seed int64) ([]HostileRow, error) {
	var rows []HostileRow
	for _, rate := range HostileFaultRates {
		for _, retry := range []bool{false, true} {
			topo, specs, failures := MultiJobScenario(devices, jobs, seed)
			res, err := coordinator.Run(topo, specs, failures, coordinator.Options{
				Chaos:    HostilePlan(rate),
				Recovery: HostileRecovery(retry),
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: hostile rate=%v retry=%v: %w", rate, retry, err)
			}
			policy := "retry-off"
			if retry {
				policy = "retry-on"
			}
			row := HostileRow{
				FaultRate:   rate,
				Policy:      policy,
				MakespanMin: res.MakespanMin,
				Retries:     res.Retries,
				Requeues:    res.Requeues,
				Quarantined: res.QuarantinedDevices,
				MovedBytes:  res.MovedBytesTotal,
				RetryBytes:  res.RetryBytes,
				RecoverySec: res.RecoverySec,
			}
			durations := map[string]float64{}
			for _, sp := range specs {
				durations[sp.Name] = sp.DurationMin
			}
			var doneMin float64
			for _, js := range res.Jobs {
				if js.Completed {
					row.Completed++
					doneMin += durations[js.Name]
				}
			}
			if res.MakespanMin > 0 {
				row.Goodput = doneMin / res.MakespanMin
			}
			if n := res.Retries + res.Requeues; n > 0 {
				row.MeanRecoverySec = res.RecoverySec / float64(n)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// HostileHeadline is the experiment's acceptance bar, asserted by
// tenplex-bench -check on the retry-on cell at the highest fault rate
// against its retry-off twin: the capped retry budget was exercised and
// completes strictly more jobs than fail-fast.
func HostileHeadline(offCompleted, onCompleted, onRetries float64) error {
	if onCompleted <= offCompleted {
		return fmt.Errorf("jobs_completed: %.0f not strictly above retry-off's %.0f", onCompleted, offCompleted)
	}
	if onRetries == 0 {
		return fmt.Errorf("retries: 0, the retry budget was never exercised")
	}
	return nil
}

// HostileComparison tabulates CompareHostile on the shared
// 32-device/12-job scenario.
func HostileComparison() ([]HostileRow, Table, error) {
	rows, err := CompareHostile(32, 12, MultiJobSeed)
	if err != nil {
		return nil, Table{}, err
	}
	tab := Table{
		ID:    "hostile",
		Title: "Hostile-cluster survival: fault-rate sweep x recovery policy (32 devices, 12 jobs)",
		Columns: []string{"fault-rate", "policy", "completed", "goodput", "retries",
			"requeues", "quarantined", "re-moved-MB", "recovery-s", "mean-rec-s"},
	}
	for _, r := range rows {
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%.3f", r.FaultRate), r.Policy,
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%.3f", r.Goodput),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Requeues),
			fmt.Sprintf("%d", r.Quarantined),
			fmt.Sprintf("%.1f", float64(r.RetryBytes)/1e6),
			fmt.Sprintf("%.3f", r.RecoverySec),
			fmt.Sprintf("%.3f", r.MeanRecoverySec),
		})
	}
	tab.Notes = append(tab.Notes,
		"same arrival trace, chaos schedule (flap, spot reclaim, link degrade) and chaos seed per row; only the store fault rate and the recovery policy change",
		"retry-off aborts on the first injected fault: rollback to the last bit-verified checkpoint, requeue, redeploy; retry-on spends a capped backoff budget of attempts first",
		"every completed job is bit-verified; non-completed jobs end explicitly lost or rejected (no silent loss)",
	)
	return rows, tab, nil
}
