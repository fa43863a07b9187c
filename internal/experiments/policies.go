package experiments

import (
	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
)

// The policy-comparison experiment runs the shared 32-device/12-job
// multi-job scenario under each coordinator scheduling policy and
// contrasts cluster-level outcomes: the same arrival trace, models and
// injected failure, with only the admission/preemption/expansion
// decisions changing. It extends the paper's single-policy scenario
// (§2) the same way MultiJobCluster does, and is the evidence base for
// choosing a policy per workload.

// PolicyPriorities assigns the deterministic priority classes the
// priority policy uses on generated workloads: jobs rotate through
// classes 0 (batch), 1 (standard) and 2 (production) in submission
// order. FIFO and DRF ignore the field, so the assignment is safe to
// apply unconditionally.
func PolicyPriorities(specs []coordinator.JobSpec) []coordinator.JobSpec {
	out := append([]coordinator.JobSpec(nil), specs...)
	for i := range out {
		out[i].Priority = i % 3
	}
	return out
}

// Policies is the policies table: one variant per policy, FIFO first.
func Policies() Experiment {
	e := Experiment{
		ID:     "policies",
		Title:  "Scheduling policies on the multi-job cluster (32 devices, 12 jobs)",
		Labels: []string{"policy"},
		Columns: []Column{
			{"makespan-min", "makespan_min", "%.1f", 0}, {"mean-util", "mean_cluster_utilization", "%.2f", 0},
			{"preemptions", "preemptions", "%d", 0}, {"reconfig-s", "aggregate_reconfig_seconds", "%.3f", 0},
			{"completed", "jobs_completed", "%d", 0}, {"rejected", "jobs_rejected", "%d", 0},
			{"mean-queue-min", "mean_queue_min", "%.1f", 0},
		},
		Notes: notes(
			"same arrival trace, models and injected failure per row; only the Policy changes",
			"priority classes rotate 0/1/2 in submission order (PriorityGang admits gangs whole)",
			"fifo row matches the \"multijob\" experiment exactly (byte-identical traces)",
		),
	}
	prioritized := func() (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
		topo, specs, failures := MultiJobScenario(32, 12, MultiJobSeed)
		return topo, PolicyPriorities(specs), failures
	}
	for _, p := range []coordinator.Policy{coordinator.FIFO{}, coordinator.DRF{}, coordinator.PriorityGang{}} {
		e.Variants = append(e.Variants, Replay(p.Name(), []string{p.Name()}, prioritized, coordinator.Options{Policy: p}))
	}
	return e
}
