package coordinator

import (
	"fmt"
	"math"
	"slices"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
)

// --- policy views ---

func (s *sim) viewOf(j *simJob) *JobView {
	return &JobView{
		Name:       j.spec.Name,
		Priority:   j.spec.Priority,
		GPUs:       j.spec.GPUs,
		MinGPUs:    j.spec.MinGPUs,
		MaxGPUs:    j.spec.MaxGPUs,
		ArrivalMin: j.spec.ArrivalMin,
		SubmitIdx:  j.idx,
		Alloc:      len(j.alloc),
		Spread:     len(j.alloc.Workers(s.topo)),
	}
}

func (s *sim) view() *ClusterView {
	v := &ClusterView{
		Devices:        s.topo.NumDevices(),
		Workers:        s.topo.NumWorkers(),
		Free:           s.ledger.FreeCount(),
		Healthy:        s.ledger.Healthy(),
		PlacementAware: s.opts.Placement,
	}
	for _, name := range s.queue {
		v.Queued = append(v.Queued, s.viewOf(s.jobs[name]))
	}
	for _, j := range s.running() {
		v.Running = append(v.Running, s.viewOf(j))
	}
	return v
}

// placementCandidates bounds the candidate device sets scored per
// placement decision.
const placementCandidates = 4

// choosePlacement scores up to placementCandidates concrete
// device sets growing (or placing) job j to n devices total under the
// configuration the parallelizer picked for that size, and asks the
// Policy to rank them — placement chooses WHICH devices, not the
// (T, P, D), so placement-aware runs stay comparable to count-based
// ones decision for decision. cur is the job's current allocation (nil
// at admission); candidates always contain it, so a grow never moves
// the job off devices it holds. Each candidate carries the change its
// score priced, committed if it is picked. nil means placement is off or
// no candidate could be scored: the caller picks by count.
func (s *sim) choosePlacement(j *simJob, cfg parallel.Config, n int, cur cluster.Allocation) *PlacementCandidate {
	extra := n - len(cur)
	if !s.opts.Placement || extra < 1 {
		return nil
	}
	pr := s.pricer(j, nil)
	var cands []*PlacementCandidate
	for _, set := range s.ledger.CandidateSets(extra, placementCandidates, cur) {
		full := append(append(cluster.Allocation(nil), cur...), set...)
		ps := s.cache.ScorePlacementFor(j.spec.Name, j.spec.Model, cfg, s.topo, full, pr, s.opts.Perf)
		if !ps.Feasible {
			continue
		}
		ch, _ := ps.Migration.Plan.(*job.Change)
		cands = append(cands, &PlacementCandidate{
			Devices:        full,
			Config:         ps.Config,
			Spread:         len(full.Workers(s.topo)),
			SamplesSec:     ps.SamplesSec,
			MigrationSec:   ps.Migration.Sec,
			MigrationBytes: ps.Migration.Bytes,
			Score:          ps.Score,
			ch:             ch,
		})
	}
	if len(cands) == 0 {
		return nil
	}
	pick := s.policy.RankPlacement(s.view(), s.viewOf(j), cands)
	if pick == nil {
		pick = cands[0]
	}
	return pick
}

// priceSource keys a memoized price so that no change is committed twice:
// a restore by its requeue, a plan by its decided PTC and failed devices.
type priceSource struct {
	job     string
	requeue int
	decided *core.PTC
	failed  string
}

// pricer prices moving j's state onto a candidate with the change the
// loop would commit for it: nothing for a first deploy, whose state is
// generated in place; the restore from its checkpoint for a re-admission;
// and for a running job the plan from its decided PTC, with the failed
// devices a recovery reads from storage instead.
func (s *sim) pricer(j *simJob, failed []cluster.DeviceID) perfmodel.Pricer {
	if !j.admitted {
		return perfmodel.Pricer{}
	}
	if j.state != jobRunning {
		return perfmodel.Pricer{Source: priceSource{job: j.spec.Name, requeue: j.requeues},
			Price: func(cfg parallel.Config, alloc cluster.Allocation) (perfmodel.Migration, error) {
				return migration(job.PlanRestore(j.spec.Model, s.topo, cfg, alloc))
			}}
	}
	return perfmodel.Pricer{
		Source: priceSource{job: j.spec.Name, decided: j.decided, failed: cluster.Allocation(failed).Signature()},
		From:   j.decided.Devices,
		Price: func(cfg parallel.Config, alloc cluster.Allocation) (perfmodel.Migration, error) {
			return migration(s.planOnLoop(j, cfg, alloc, failed))
		},
	}
}

// migration is a change planned on the loop, as perfmodel prices it.
func migration(ch *job.Change, err error) (perfmodel.Migration, error) {
	if err != nil {
		return perfmodel.Migration{}, err
	}
	return perfmodel.Migration{Sec: ch.SimSec, Bytes: ch.Stats.MovedBytes, Plan: ch}, nil
}

// evictBytesFor plans exactly the shrink reclaimFor would commit if it
// picked this victim next — shrink by min(surplus, need), down to the
// largest feasible size, under the cheapest feasible reshape — so the
// prediction and the act agree: both are the one memoized plan (victims
// keep their leading devices; the shrink truncates the allocation). It
// returns the bytes that plan moves and the devices it frees; a victim
// with no feasible shrink right now moves math.MaxInt64.
func (s *sim) evictBytesFor(r *simJob, floor, need int) (int64, int) {
	n, _, ok := s.bestAtMost(r.spec.Model, len(r.alloc)-min(len(r.alloc)-floor, need), floor)
	if !ok || n >= len(r.alloc) {
		return math.MaxInt64, 0
	}
	cps, err := s.cache.CheapestPlacementFor(r.spec.Name, r.spec.Model, s.topo, r.alloc[:n], s.pricer(r, nil), s.opts.Perf)
	if err != nil {
		return math.MaxInt64, 0
	}
	return cps.Migration.Bytes, len(r.alloc) - n
}

// shrink commits a forced shrink (preemption, a scale request, recovery
// from the failed devices, or a spot migration) of job j onto alloc.
// Count-based runs plan the parallelizer's throughput-best pick;
// placement-aware runs commit the cheapest feasible reshape instead — a
// forced change earns the job nothing, so minimal state movement is the
// objective.
func (s *sim) shrink(j *simJob, est perfmodel.Estimate, alloc cluster.Allocation,
	failed []cluster.DeviceID, kind, note string) error {
	if s.opts.Placement {
		cps, err := s.cache.CheapestPlacementFor(j.spec.Name, j.spec.Model, s.topo, alloc, s.pricer(j, failed), s.opts.Perf)
		if err == nil {
			s.countPlan()
			return s.applyPlanned(j, cps.Migration.Plan.(*job.Change), kind, note)
		}
	}
	return s.applyChange(j, est.Config, alloc, failed, kind, note)
}

// bestAtMost returns the largest feasible lease size n in [low, high]
// with its configuration.
func (s *sim) bestAtMost(m *model.Model, high, low int) (int, perfmodel.Estimate, bool) {
	for n := high; n >= max(low, 1); n-- {
		if est, err := s.cache.Best(m, s.topo, n, s.opts.Perf); err == nil {
			return n, est, true
		}
	}
	return 0, perfmodel.Estimate{}, false
}

// --- scheduling engine (mechanism; choices delegated to the Policy) ---

// admitQueued places queued jobs in the Policy's order. When free
// capacity is short it arbitrates: the Policy picks running victims to
// shrink until the candidate's minimum acceptable lease fits. Whether
// an unadmittable job blocks those behind it (head-of-line) is also
// the Policy's call, via NextQueued.
func (s *sim) admitQueued() error {
	attempted := map[string]bool{}
	reclaimTried := map[string]bool{}
	for len(s.queue) > 0 {
		name := s.policy.NextQueued(s.view(), attempted)
		if name == "" {
			return nil
		}
		j := s.jobs[name]
		if j == nil || j.state != jobQueued {
			return fmt.Errorf("coordinator: policy %s picked non-queued job %q", s.policy.Name(), name)
		}
		low, high := s.policy.AdmitBounds(s.view(), s.viewOf(j))
		if low < 1 || high < low {
			return fmt.Errorf("coordinator: policy %s: bad admit bounds [%d, %d] for %s",
				s.policy.Name(), low, high, name)
		}
		if low > s.ledger.Healthy() {
			j.state = jobRejected
			s.dequeue(name)
			s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvReject,
				Note: fmt.Sprintf("min %d GPUs exceeds %d healthy devices", low, s.ledger.Healthy())})
			s.releaseTerminal(j)
			continue
		}
		high = min(high, s.ledger.FreeCount())
		n, est, ok := s.bestAtMost(j.spec.Model, high, low)
		if !ok {
			if !reclaimTried[name] {
				reclaimTried[name] = true
				freed, err := s.reclaimFor(j, low)
				if err != nil {
					return err
				}
				if freed {
					continue // retry with the reclaimed capacity
				}
			}
			attempted[name] = true
			continue
		}
		cfg := est.Config
		var devs []cluster.DeviceID
		var restore *job.Change // a re-admission's, when placement priced it
		if pc := s.choosePlacement(j, cfg, n, nil); pc != nil {
			devs, restore = pc.Devices, pc.ch
		}
		if devs == nil {
			picked, got := s.ledger.Pick(n, nil)
			if !got {
				return fmt.Errorf("coordinator: pick(%d) failed with %d free", n, s.ledger.FreeCount())
			}
			devs = picked
		}
		if err := s.ledger.Lease(name, devs...); err != nil {
			return err
		}
		j.alloc = append(cluster.Allocation(nil), devs...)
		j.cfg = cfg
		j.state = jobRunning
		j.lastStartMin = s.now
		j.ver++
		s.dequeue(name)
		if j.admitted {
			// Re-admission of a requeued job: redeploy its checkpointed
			// state onto the new placement and resume the remaining
			// duration. The restore is priced like any other change, so
			// the completion push waits for its booking.
			rem := max(j.spec.DurationMin-j.servedMin, 0)
			j.complAt = s.now + rem
			s.countPlan()
			p := s.newPending(j)
			s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvAdmit,
				GPUs: n, Config: cfg.String(),
				Note: fmt.Sprintf("re-admitted from checkpoint, %.1f min remaining", rem)})
			if p.ch = restore; p.ch == nil {
				var err error
				if p.ch, err = job.PlanRestore(j.spec.Model, s.topo, cfg, j.alloc); err != nil {
					return fmt.Errorf("coordinator: restore plan %s: %w", name, err)
				}
			}
			j.decided = p.ch.To
			if err := s.exec.do(command{kind: cmdRestore, job: name, p: p}); err != nil {
				return err
			}
			continue
		}
		j.admitted = true
		j.admitMin = s.now
		j.complAt = s.now + j.spec.DurationMin
		s.push(event{time: j.complAt, kind: evComplete, job: name, ver: j.ver})
		s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvAdmit,
			GPUs: n, Config: cfg.String()})
		// First placement: the deploy command generates the initial
		// state into the Tensor Stores and files the seed it came from as
		// the baseline checkpoint, all on the job's chain. The PTC they are
		// placed under is built here, metadata only, because it is also the
		// job's first decided PTC: the scale-out that usually follows in
		// this same event is planned against it while the deploy is still
		// moving bytes.
		var err error
		if j.decided, err = parallel.BuildPTC(j.spec.Model, cfg, j.alloc); err != nil {
			return fmt.Errorf("coordinator: deploy %s: %w", name, err)
		}
		if err := s.exec.do(command{kind: cmdDeploy, job: name, span: s.tr.NewID(), tMin: s.now,
			model: j.spec.Model, seed: j.spec.Seed, ptc: j.decided, cfg: cfg, alloc: j.alloc}); err != nil {
			return err
		}
	}
	return nil
}

// dequeue removes name from the admission queue, preserving order.
func (s *sim) dequeue(name string) {
	for i, q := range s.queue {
		if q == name {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// reclaimFor shrinks running jobs — the Policy picks the victims —
// until at least target devices are free for j. It reports whether
// enough capacity was freed. Each shrink is a real reconfiguration of
// the victim job.
func (s *sim) reclaimFor(j *simJob, target int) (bool, error) {
	// Don't shrink anyone unless the target is actually reachable:
	// partial preemption would only be undone by the next expansion.
	// Each victim counts only what shrinking to its smallest *feasible*
	// size at or above the policy's floor would free.
	reqView := s.viewOf(j)
	achievable := s.ledger.FreeCount()
	for _, r := range s.running() {
		floor := s.policy.PreemptFloor(reqView, s.viewOf(r))
		if floor >= len(r.alloc) {
			continue
		}
		if n, ok := s.minFeasible(r.spec.Model, floor, len(r.alloc)); ok {
			achievable += len(r.alloc) - n
		}
	}
	if achievable < target {
		return false, nil
	}
	excluded := map[string]bool{} // victims with no feasible shrink left
	for s.ledger.FreeCount() < target {
		view := s.view()
		var cands []*JobView
		floors := map[string]int{}
		for _, r := range s.running() {
			if excluded[r.spec.Name] {
				continue
			}
			rv := s.viewOf(r)
			floor := s.policy.PreemptFloor(reqView, rv)
			if sp := len(r.alloc) - floor; sp > 0 {
				rv.Surplus = sp
				if s.opts.Placement {
					rv.EvictBytes, rv.EvictFreed = s.evictBytesFor(r, floor, target-s.ledger.FreeCount())
				}
				floors[r.spec.Name] = floor
				cands = append(cands, rv)
			}
		}
		pick := s.policy.PickVictim(view, reqView, cands)
		if pick == nil {
			return false, nil
		}
		victim := s.jobs[pick.Name]
		if victim == nil || victim.state != jobRunning || excluded[pick.Name] {
			return false, fmt.Errorf("coordinator: policy %s picked invalid victim %q", s.policy.Name(), pick.Name)
		}
		give := min(len(victim.alloc)-floors[pick.Name], target-s.ledger.FreeCount())
		cur := len(victim.alloc)
		n, est, ok := s.bestAtMost(victim.spec.Model, cur-give, floors[pick.Name])
		if !ok || n >= cur {
			excluded[pick.Name] = true
			continue
		}
		alloc := append(cluster.Allocation(nil), victim.alloc[:n]...)
		note := fmt.Sprintf("preempted for %s", j.spec.Name)
		s.preemptions++
		s.reg.Add("coord.preemptions", 1)
		if err := s.shrink(victim, est, alloc, nil, EvScaleIn, note); err != nil {
			return false, err
		}
	}
	return true, nil
}

// minFeasible returns the smallest feasible lease size in [low, high].
func (s *sim) minFeasible(m *model.Model, low, high int) (int, bool) {
	for n := max(low, 1); n <= high; n++ {
		if _, err := s.cache.Best(m, s.topo, n, s.opts.Perf); err == nil {
			return n, true
		}
	}
	return 0, false
}

// expandJobs grows elastic running jobs into free capacity — the
// Policy orders the candidates: first back towards their requested
// size, then — only when the admission queue is empty — up to their
// elastic maximum.
func (s *sim) expandJobs() error {
	stuck := map[string]bool{} // jobs with no feasible larger lease right now
	for {
		free := s.ledger.FreeCount()
		if free == 0 {
			return nil
		}
		limitOf := func(r *simJob) int {
			if len(s.queue) == 0 {
				return r.spec.MaxGPUs
			}
			return r.spec.GPUs
		}
		var cands []*JobView
		for _, r := range s.running() {
			if stuck[r.spec.Name] || len(r.alloc) >= limitOf(r) {
				continue
			}
			cands = append(cands, s.viewOf(r))
		}
		pickView := s.policy.PickExpand(s.view(), cands)
		if pickView == nil {
			return nil
		}
		pick := s.jobs[pickView.Name]
		if pick == nil || pick.state != jobRunning || stuck[pickView.Name] {
			return fmt.Errorf("coordinator: policy %s picked invalid expansion %q", s.policy.Name(), pickView.Name)
		}
		cur := len(pick.alloc)
		high := min(cur+free, limitOf(pick))
		n, est, ok := s.bestAtMost(pick.spec.Model, high, cur+1)
		if !ok || n <= cur {
			stuck[pick.spec.Name] = true
			continue
		}
		var err error
		if pc := s.choosePlacement(pick, est.Config, n, pick.alloc); pc != nil {
			s.countPlan()
			err = s.applyPlanned(pick, pc.ch, EvScaleOut, "")
		} else if extra, got := s.ledger.Pick(n-cur, pick.alloc); got {
			err = s.applyChange(pick, est.Config, append(append(cluster.Allocation(nil), pick.alloc...), extra...), nil, EvScaleOut, "")
		} else {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// defrag is a completion's second phase: it redeploys fragmented jobs
// onto fewer workers when a compact placement exists and its
// netsim-priced cost stays under the configured ceiling — the paper's
// redeployment scenario (§6.3) driven by the cluster, not the user.
// Unlike every other change, this one is only decided if its price is
// right. It runs after the first phase has been booked, so a job whose
// change the sim driver found aborted has already been requeued and is
// not compacted (doc.go).
func (s *sim) defrag() error {
	s.defragDue = false
	if s.opts.DefragMaxSec < 0 {
		return nil
	}
	for _, j := range s.running() {
		cur := j.alloc
		curWorkers := len(cur.Workers(s.topo))
		// The most compact placement the cluster allows the job, its own
		// devices counted as free: one walk of the ledger's count buckets.
		candidate, workers, ok := s.ledger.Repack(j.spec.Name, len(cur))
		if !ok || workers >= curWorkers {
			continue
		}
		// Same device count, so the job keeps its current (T, P, D); price
		// the move before committing it. A change decided over an abort
		// that has not been stepped yet re-plans on the chain. In placement
		// mode the worker count alone does not justify a move: compaction
		// must win on the same migration-amortized score that placed the
		// job, with the plan it commits as the migration — otherwise defrag
		// would undo a spread the policy deliberately chose and pay back
		// the migration that choice avoided.
		var ch *job.Change
		var err error
		if s.opts.Placement {
			have := s.cache.ScorePlacementFor(j.spec.Name, j.spec.Model, j.cfg, s.topo, cur, perfmodel.Pricer{}, s.opts.Perf)
			want := s.cache.ScorePlacementFor(j.spec.Name, j.spec.Model, j.cfg, s.topo, candidate, s.pricer(j, nil), s.opts.Perf)
			if !want.Feasible || !have.Feasible || want.Score <= have.Score {
				continue
			}
			ch = want.Migration.Plan.(*job.Change)
		} else if ch, err = s.planOnLoop(j, j.cfg, candidate, nil); err != nil {
			return err
		}
		s.countPlan()
		if ch.SimSec > s.opts.DefragMaxSec {
			continue
		}
		note := fmt.Sprintf("defragmented %d -> %d workers", curWorkers, workers)
		if err := s.applyPlanned(j, ch, EvRedeploy, note); err != nil {
			return err
		}
	}
	return nil
}

// applyChange decides one allocation change of a running job: the plan
// is priced here on the event loop, against the job's decided PTC (its
// netsim cost schedules the job's completion), ledger mutations and
// bookkeeping happen immediately, and only the State Transformer's work
// goes to the job's chain.
func (s *sim) applyChange(j *simJob, cfg parallel.Config, alloc cluster.Allocation,
	failed []cluster.DeviceID, kind, note string) error {
	s.countPlan()
	ch, err := s.planOnLoop(j, cfg, alloc, failed)
	if err != nil {
		return err
	}
	return s.applyPlanned(j, ch, kind, note)
}

func (s *sim) countPlan() {
	s.plans++
	s.reg.Add("coord.plans", 1)
}

// planOnLoop plans and prices a change of j from its decided PTC. Nothing
// it reads belongs to the job's chain, so no decision waits for one.
func (s *sim) planOnLoop(j *simJob, cfg parallel.Config, alloc cluster.Allocation,
	failed []cluster.DeviceID) (*job.Change, error) {
	ch, err := job.Plan(j.spec.Model, s.topo, j.decided, cfg, alloc, failed)
	if err != nil {
		return nil, fmt.Errorf("coordinator: plan %s: %w", j.spec.Name, err)
	}
	return ch, nil
}

// applyPlanned commits a priced change: it books the decision, advances
// the decided PTC to the change's target and queues the commit.
func (s *sim) applyPlanned(j *simJob, ch *job.Change, kind, note string) error {
	p, err := s.decideChange(j, ch.Config, ch.Alloc, kind, note)
	if err != nil {
		return err
	}
	p.ch = ch
	j.decided = ch.To
	return s.exec.do(command{kind: cmdCommit, job: j.spec.Name, p: p})
}

// decideChange books one allocation change at decision time: it moves
// the lease (new devices in, vacated ones out), updates the
// decision-plane mirrors, reserves the completion event's sequence
// number and appends the timeline placeholder book will finalize.
func (s *sim) decideChange(j *simJob, cfg parallel.Config, alloc cluster.Allocation, kind, note string) (*pendingChange, error) {
	name := j.spec.Name
	held := s.ledger.Allocation(name)
	var fresh, vacate []cluster.DeviceID
	for _, d := range alloc {
		if !held.Contains(d) {
			fresh = append(fresh, d)
		}
	}
	for _, d := range held {
		if !alloc.Contains(d) {
			vacate = append(vacate, d)
		}
	}
	slices.Sort(vacate)
	if len(fresh) > 0 {
		if err := s.ledger.Lease(name, fresh...); err != nil {
			return nil, err
		}
	}
	if len(vacate) > 0 {
		if err := s.ledger.Release(name, vacate...); err != nil {
			return nil, err
		}
	}
	j.alloc = append(cluster.Allocation(nil), alloc...)
	j.cfg = cfg
	j.resizes++
	j.ver++
	p := s.newPending(j)
	s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: kind,
		GPUs: len(alloc), Config: cfg.String(), Note: note})
	return p, nil
}

// newPending opens the books on a change of j to the placement the
// loop has just decided (j.cfg, j.alloc): the completion event's reserved
// sequence number, the trace root, the timeline index the caller's next
// record fills, and a place in the batch book will book.
func (s *sim) newPending(j *simJob) *pendingChange {
	p := &pendingChange{j: j, seq: s.reserveSeq(), ver: j.ver,
		tlIdx: len(s.timeline), spanID: s.tr.NewID(), tMin: s.now}
	s.pending = append(s.pending, p)
	s.inflight++
	j.inflight++
	return p
}

// reschedule hands capacity that has just come free to the queue first,
// then to elastic growth.
func (s *sim) reschedule() error {
	if err := s.admitQueued(); err != nil {
		return err
	}
	return s.expandJobs()
}
