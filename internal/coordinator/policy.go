package coordinator

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/job"
	"tenplex/internal/parallel"
)

// A Policy makes the coordinator's admission, preemption and expansion
// choices. The event loop owns all mechanism — the ledger, feasibility
// search, reconfiguration planning and execution — and consults the
// policy only at decision points, always with a read-only snapshot of
// the cluster. Policies must be deterministic functions of that
// snapshot: the simulation's reproducibility (and the wall-clock
// runtime's trace equality with sim mode) depends on it.
type Policy interface {
	// Name identifies the policy in results and BENCH records.
	Name() string
	// NextQueued picks the queued job to try admitting next. attempted
	// holds the jobs already found unadmittable in this pass; returning
	// "" ends the pass. A policy with head-of-line blocking returns ""
	// as soon as its first choice is in attempted.
	NextQueued(v *ClusterView, attempted map[string]bool) string
	// AdmitBounds returns the [low, high] lease sizes acceptable for
	// admitting j. low is also the capacity target preemption tries to
	// free, and a job whose low exceeds the healthy device count is
	// rejected outright.
	AdmitBounds(v *ClusterView, j *JobView) (low, high int)
	// PreemptFloor is the smallest lease preemption may shrink victim
	// to on behalf of req. Any value >= victim.Alloc marks the victim
	// as not preemptible by req.
	PreemptFloor(req, victim *JobView) int
	// PickVictim chooses the next job to shrink from cands (each has a
	// positive preemptible Surplus, listed in submission order). nil
	// gives up on preemption for req.
	PickVictim(v *ClusterView, req *JobView, cands []*JobView) *JobView
	// PickExpand chooses which running job grows into free capacity
	// next, from cands in submission order. nil stops expansion.
	PickExpand(v *ClusterView, cands []*JobView) *JobView
	// RankPlacement chooses among scored candidate device sets for
	// placing (or growing) job j. It is consulted only when the
	// coordinator runs placement-aware (Options.Placement); cands are
	// in enumeration order — the first is always the count-based
	// compact pick — and every candidate is feasible with its best
	// configuration and score attached. Returning nil falls back to
	// the first candidate.
	RankPlacement(v *ClusterView, j *JobView, cands []*PlacementCandidate) *PlacementCandidate
}

// PlacementCandidate is one scored candidate device set a Policy ranks
// in placement-aware mode.
type PlacementCandidate struct {
	// Devices is the candidate allocation, in rank order.
	Devices cluster.Allocation
	// Config is the best configuration perfmodel found for the set.
	Config parallel.Config
	// Spread is the number of workers the set spans.
	Spread int
	// SamplesSec is the modeled training throughput of Config laid out
	// on exactly these devices.
	SamplesSec float64
	// MigrationSec is the netsim-priced cost of moving the job's state
	// from its current placement onto the candidate (0 for initial
	// placements), and MigrationBytes its payload.
	MigrationSec   float64
	MigrationBytes int64
	// Score is the migration-amortized throughput score; higher is
	// better.
	Score float64
	ch    *job.Change // the priced change, committed if picked
}

// JobView is the read-only per-job state a Policy sees.
type JobView struct {
	Name     string
	Priority int
	// GPUs is the requested size, MinGPUs/MaxGPUs the elastic bounds.
	GPUs, MinGPUs, MaxGPUs int
	ArrivalMin             float64
	// SubmitIdx is the job's submission order (ties are broken by it).
	SubmitIdx int
	// Alloc is the current lease size (0 while queued) and Spread the
	// number of workers the lease spans.
	Alloc, Spread int
	// Surplus is the preemptible slack above the policy's floor; only
	// set on PickVictim candidates.
	Surplus int
	// EvictBytes is what exactly the shrink the coordinator would commit
	// if this victim were picked next moves off its devices, the same
	// planned bytes the forced reshape was chosen to minimize (math.MaxInt64
	// when the victim has no feasible shrink), and EvictFreed the number
	// of devices that shrink frees. Only set on PickVictim candidates,
	// and only in placement-aware mode; zero otherwise.
	EvictBytes int64
	EvictFreed int
}

// ClusterView is the read-only cluster state a Policy sees.
type ClusterView struct {
	Devices, Workers int
	Free, Healthy    int
	// PlacementAware reports whether the coordinator scores candidate
	// device sets (Options.Placement): PickVictim candidates then carry
	// EvictBytes and RankPlacement is consulted.
	PlacementAware bool
	// Queued is the admission queue in arrival order; Running the
	// placed jobs in submission order.
	Queued, Running []*JobView
}

// DominantShare is the job's dominant resource share: the larger of its
// device share and its worker-spread share — the quantity DRF
// equalizes.
func (j *JobView) DominantShare(v *ClusterView) float64 {
	ds := float64(j.Alloc) / float64(v.Devices)
	ws := 0.0
	if v.Workers > 0 {
		ws = float64(j.Spread) / float64(v.Workers)
	}
	return max(ds, ws)
}

// PolicyByName resolves a policy from its CLI name: "fifo" (default),
// "drf", or "priority".
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "fifo":
		return FIFO{}, nil
	case "drf":
		return DRF{}, nil
	case "priority":
		return PriorityGang{}, nil
	}
	return nil, fmt.Errorf("coordinator: unknown policy %q (want fifo, drf or priority)", name)
}

// --- FIFO + largest surplus (the default) ---

// FIFO is the original coordinator policy: strict arrival-order
// admission with deliberate head-of-line blocking, largest-surplus
// preemption, and most-starved-first expansion. Sim-mode traces under
// FIFO are byte-identical to the pre-Policy coordinator.
type FIFO struct{}

func (FIFO) Name() string { return "fifo" }

func (FIFO) NextQueued(v *ClusterView, attempted map[string]bool) string {
	if len(v.Queued) == 0 || attempted[v.Queued[0].Name] {
		return ""
	}
	return v.Queued[0].Name
}

func (FIFO) AdmitBounds(v *ClusterView, j *JobView) (int, int) { return j.MinGPUs, j.GPUs }

func (FIFO) PreemptFloor(req, victim *JobView) int { return victim.MinGPUs }

func (FIFO) PickVictim(v *ClusterView, req *JobView, cands []*JobView) *JobView {
	if v.PlacementAware {
		return cheapestVictim(cands)
	}
	var pick *JobView
	surplus := 0
	for _, c := range cands {
		if c.Surplus > surplus {
			surplus, pick = c.Surplus, c
		}
	}
	return pick
}

// RankPlacement for FIFO keeps the highest migration-amortized score:
// the device set on which the configuration runs fastest after paying
// for getting the state there. Ties keep the earlier (more compact)
// candidate.
func (FIFO) RankPlacement(v *ClusterView, j *JobView, cands []*PlacementCandidate) *PlacementCandidate {
	return bestScore(cands)
}

// bestScore picks the highest-scoring candidate, ties broken towards
// the earlier (more compact) one.
func bestScore(cands []*PlacementCandidate) *PlacementCandidate {
	var pick *PlacementCandidate
	for _, c := range cands {
		if pick == nil || c.Score > pick.Score {
			pick = c
		}
	}
	return pick
}

// evictsBetter breaks a tie between victims c and pick: in
// placement-aware mode towards the eviction that moves fewer bytes,
// otherwise towards the larger surplus.
func evictsBetter(v *ClusterView, c, pick *JobView) bool {
	if v.PlacementAware {
		return c.EvictBytes < pick.EvictBytes
	}
	return c.Surplus > pick.Surplus
}

// cheapestVictim picks the victim whose eviction moves the fewest
// planned bytes per device it actually frees (EvictFreed — the planned
// shrink, not the whole surplus) — the cost-aware counterpart of
// largest-surplus. Ties fall back to the larger surplus, then
// earlier submission.
func cheapestVictim(cands []*JobView) *JobView {
	var pick *JobView
	var cost float64
	for _, c := range cands {
		freed := c.EvictFreed
		if freed < 1 {
			freed = c.Surplus
		}
		per := float64(c.EvictBytes) / float64(freed)
		if pick == nil || per < cost ||
			(per == cost && (c.Surplus > pick.Surplus ||
				(c.Surplus == pick.Surplus && c.SubmitIdx < pick.SubmitIdx))) {
			pick, cost = c, per
		}
	}
	return pick
}

func (FIFO) PickExpand(v *ClusterView, cands []*JobView) *JobView {
	var pick *JobView
	ratio := 0.0
	for _, c := range cands {
		r := float64(c.Alloc) / float64(c.GPUs)
		if pick == nil || r < ratio {
			pick, ratio = c, r
		}
	}
	return pick
}

// --- DRF-style dominant-resource fairness ---

// DRF approximates dominant-resource fairness over two dimensions:
// device share and worker-spread share. Admission favors the job whose
// admission costs the smallest prospective dominant share (progressive
// filling), without head-of-line blocking; preemption shrinks the job
// with the largest dominant share first; expansion grows the job with
// the smallest dominant share first.
type DRF struct{}

func (DRF) Name() string { return "drf" }

func (DRF) NextQueued(v *ClusterView, attempted map[string]bool) string {
	var pick *JobView
	var share float64
	for _, q := range v.Queued {
		if attempted[q.Name] {
			continue
		}
		// Prospective dominant share at the requested size: the larger
		// of the device share and the worker-spread share under the
		// densest possible packing (ceil over uniform workers).
		s := float64(q.GPUs) / float64(v.Devices)
		if v.Workers > 0 && v.Devices >= v.Workers {
			perWorker := v.Devices / v.Workers
			spread := (q.GPUs + perWorker - 1) / perWorker
			s = max(s, float64(spread)/float64(v.Workers))
		}
		if pick == nil || s < share || (s == share && q.SubmitIdx < pick.SubmitIdx) {
			pick, share = q, s
		}
	}
	if pick == nil {
		return ""
	}
	return pick.Name
}

func (DRF) AdmitBounds(v *ClusterView, j *JobView) (int, int) { return j.MinGPUs, j.GPUs }

func (DRF) PreemptFloor(req, victim *JobView) int { return victim.MinGPUs }

func (DRF) PickVictim(v *ClusterView, req *JobView, cands []*JobView) *JobView {
	var pick *JobView
	var share float64
	for _, c := range cands {
		s := c.DominantShare(v)
		// Fairness stays the primary axis.
		if pick == nil || s > share || (s == share && evictsBetter(v, c, pick)) {
			pick, share = c, s
		}
	}
	return pick
}

// RankPlacement for DRF treats worker spread as the second fairness
// resource: among the scored candidates it keeps the smallest spread,
// breaking ties by score — a narrow placement leaves more distinct
// workers for the other jobs' shares.
func (DRF) RankPlacement(v *ClusterView, j *JobView, cands []*PlacementCandidate) *PlacementCandidate {
	var pick *PlacementCandidate
	for _, c := range cands {
		if pick == nil || c.Spread < pick.Spread ||
			(c.Spread == pick.Spread && c.Score > pick.Score) {
			pick = c
		}
	}
	return pick
}

func (DRF) PickExpand(v *ClusterView, cands []*JobView) *JobView {
	var pick *JobView
	var share float64
	for _, c := range cands {
		s := c.DominantShare(v)
		if pick == nil || s < share {
			pick, share = c, s
		}
	}
	return pick
}

// --- priority classes with gang admission ---

// PriorityGang implements priority classes with gang admission: jobs
// are admitted strictly at their full requested size (all-or-nothing,
// the gang), higher priority classes first, with backfill — a gang
// that does not fit right now stays queued without blocking smaller or
// lower-priority jobs behind it. Preemption may shrink only strictly
// lower-priority jobs, lowest class first; expansion favors the
// highest class.
type PriorityGang struct{}

func (PriorityGang) Name() string { return "priority" }

func (PriorityGang) NextQueued(v *ClusterView, attempted map[string]bool) string {
	var pick *JobView
	for _, q := range v.Queued {
		if attempted[q.Name] {
			continue
		}
		if pick == nil || q.Priority > pick.Priority ||
			(q.Priority == pick.Priority && q.SubmitIdx < pick.SubmitIdx) {
			pick = q
		}
	}
	if pick == nil {
		return ""
	}
	return pick.Name
}

// AdmitBounds pins both bounds to the requested size: the gang is
// placed whole or not at all.
func (PriorityGang) AdmitBounds(v *ClusterView, j *JobView) (int, int) { return j.GPUs, j.GPUs }

func (PriorityGang) PreemptFloor(req, victim *JobView) int {
	if victim.Priority < req.Priority {
		return victim.MinGPUs
	}
	return victim.Alloc // equal or higher class: not preemptible
}

func (PriorityGang) PickVictim(v *ClusterView, req *JobView, cands []*JobView) *JobView {
	var pick *JobView
	for _, c := range cands {
		if pick == nil || c.Priority < pick.Priority ||
			(c.Priority == pick.Priority && evictsBetter(v, c, pick)) {
			pick = c
		}
	}
	return pick
}

// RankPlacement for PriorityGang maximizes raw throughput: gangs are
// placed whole and rarely move, so the one-time migration term matters
// less than the steady-state rate the class is promised.
func (PriorityGang) RankPlacement(v *ClusterView, j *JobView, cands []*PlacementCandidate) *PlacementCandidate {
	var pick *PlacementCandidate
	for _, c := range cands {
		if pick == nil || c.SamplesSec > pick.SamplesSec {
			pick = c
		}
	}
	return pick
}

func (PriorityGang) PickExpand(v *ClusterView, cands []*JobView) *JobView {
	var pick *JobView
	var ratio float64
	for _, c := range cands {
		r := float64(c.Alloc) / float64(c.GPUs)
		if pick == nil || c.Priority > pick.Priority ||
			(c.Priority == pick.Priority && r < ratio) {
			pick, ratio = c, r
		}
	}
	return pick
}
