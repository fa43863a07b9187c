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

// Hostile is the hostile table: HostileFaultRates x {retry-off,
// retry-on} over the shared multi-job scenario under the canonical
// hostile plan.
func Hostile() Experiment {
	e := Experiment{
		ID:     "hostile",
		Title:  "Hostile-cluster survival: fault-rate sweep x recovery policy (32 devices, 12 jobs)",
		Labels: []string{"fault-rate", "policy"},
		Columns: []Column{
			{"completed", "jobs_completed", "%d", 0}, {"goodput", "goodput", "%.3f", 0},
			{"retries", "retries", "%d", 0}, {"requeues", "requeues", "%d", 0},
			{"quarantined", "quarantined_devices", "%d", 0},
			// The payload re-moved by attempts beyond a change's first: the
			// waste the retry budget pays for survival.
			{"re-moved-MB", "retry_bytes", "%.1f", 1e6},
			{"recovery-s", "recovery_seconds", "%.3f", 0}, {"mean-rec-s", "mean_recovery_latency_seconds", "%.3f", 0},
		},
		Extra: []string{"moved_bytes", "makespan_min"},
		Notes: notes(
			"same arrival trace, chaos schedule (flap, spot reclaim, link degrade) and chaos seed per row; only the store fault rate and the recovery policy change",
			"retry-off aborts on the first injected fault: rollback to the last bit-verified checkpoint, requeue, redeploy; retry-on spends a capped backoff budget of attempts first",
			"every completed job is bit-verified; non-completed jobs end explicitly lost or rejected (no silent loss)",
		),
	}
	for _, rate := range HostileFaultRates {
		for _, retry := range []bool{false, true} {
			policy := "retry-off"
			if retry {
				policy = "retry-on"
			}
			e.Variants = append(e.Variants, Replay(fmt.Sprintf("%g/%s", rate, policy), []string{fmt.Sprintf("%.3f", rate), policy},
				shared(MultiJobScenario), coordinator.Options{Chaos: HostilePlan(rate), Recovery: HostileRecovery(retry)}))
		}
	}
	return e
}

// HostileHeadline is the experiment's acceptance bar, asserted by
// tenplex-bench -check on the retry-on cell at the highest fault rate
// against its retry-off twin: the capped retry budget was exercised and
// completes strictly more jobs than fail-fast.
func HostileHeadline(num func(key, cell string) float64) error {
	worst := HostileFaultRates[len(HostileFaultRates)-1]
	off, on := fmt.Sprintf("%g/retry-off", worst), fmt.Sprintf("%g/retry-on", worst)
	if num(on, "jobs_completed") <= num(off, "jobs_completed") {
		return fmt.Errorf("%s jobs_completed: %.0f not strictly above retry-off's %.0f",
			on, num(on, "jobs_completed"), num(off, "jobs_completed"))
	}
	if num(on, "retries") == 0 {
		return fmt.Errorf("%s retries: 0, the retry budget was never exercised", on)
	}
	return nil
}
