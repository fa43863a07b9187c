package coordinator

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/obs"
)

// --- booking changes and their outcomes (all on the event loop) ---

// charge books one committed change against its job: the netsim-priced
// transform once per attempt plus the policy's backoff waits. With a
// single attempt the arithmetic is exactly ch.SimSec and the timeline
// note is untouched — the legacy path, byte for byte. out is nil when
// the commit is still in flight (one attempt assumed; its outcome event
// settles the rest later).
func (s *sim) charge(p *pendingChange, out *outcome) {
	j, ch := p.j, p.ch
	attempts := 1
	if out != nil {
		attempts = out.attempts
	}
	down := ch.SimSec
	if attempts > 1 {
		down = float64(attempts)*ch.SimSec + s.opts.Recovery.totalBackoffSec(attempts)
		s.recoverySec += down - ch.SimSec
		s.timeline[p.tlIdx].Note = appendNote(s.timeline[p.tlIdx].Note,
			fmt.Sprintf("%d attempts", attempts))
	}
	s.countRetries(p, attempts)
	j.reconfigSec += down
	j.movedBytes += ch.Stats.MovedBytes
	s.reconfigSec += down
	// Downtime delays the job's completion.
	j.complAt += down / 60
	s.pushAt(event{time: j.complAt, seq: p.seq, kind: evComplete, job: j.spec.Name, ver: p.ver})
	s.timeline[p.tlIdx].SimSec = down
	s.timeline[p.tlIdx].MovedBytes = ch.Stats.MovedBytes
	if s.reg != nil {
		// Mirrors of the accumulations above, written only here on the
		// event loop in decision order — the float gauge therefore sums
		// in exactly the order j.reconfigSec did, which is what lets
		// report.Reconcile demand bit-exact equality.
		name := j.spec.Name
		s.reg.AddFloat("job."+name+".reconfig_sec", down)
		s.reg.Add("job."+name+".moved_bytes", ch.Stats.MovedBytes)
		s.reg.AddFloat("coord.reconfig_sec", down)
		s.reg.Add("coord.moved_bytes", ch.Stats.MovedBytes)
		if attempts > 1 {
			s.reg.AddFloat("coord.recovery_sec", down-ch.SimSec)
		}
	}
	s.traceChange(p, attempts, down, out)
}

// countRetries books the transform attempts a change ran beyond its
// first — the one copy of the retry accounting, whether the outcome was
// known when the change was charged, came back aborted, or arrived late.
func (s *sim) countRetries(p *pendingChange, attempts int) {
	if attempts <= 1 {
		return
	}
	extra := int64(attempts - 1)
	s.retries += attempts - 1
	s.retryBytes += extra * p.ch.Stats.MovedBytes
	if s.reg != nil {
		s.reg.Add("job."+p.j.spec.Name+".retries", extra)
		s.reg.Add("coord.retries", extra)
		s.reg.Add("coord.retry_bytes", extra*p.ch.Stats.MovedBytes)
	}
}

// degrade handles a change that book finds aborted: the chain rolled
// the runtime back to its last checkpoint, so the decision plane walks
// back too — the wasted attempts are charged to the recovery metrics
// (there is no completion to delay) and the job is requeued or, once its
// requeue budget is spent, declared lost.
func (s *sim) degrade(p *pendingChange) {
	j, ch, out := p.j, p.ch, p.out
	wasted := float64(out.attempts)*ch.SimSec + s.opts.Recovery.totalBackoffSec(out.attempts)
	s.countRetries(p, out.attempts)
	s.recoverySec += wasted
	s.reconfigSec += wasted
	j.reconfigSec += wasted
	s.timeline[p.tlIdx].SimSec = wasted
	s.noteAbort(p)
	if s.reg != nil {
		s.reg.AddFloat("job."+j.spec.Name+".reconfig_sec", wasted)
		s.reg.AddFloat("coord.reconfig_sec", wasted)
		s.reg.AddFloat("coord.recovery_sec", wasted)
	}
	s.traceChange(p, out.attempts, wasted, out)
	s.requeueJob(j)
}

func (s *sim) noteAbort(p *pendingChange) {
	s.timeline[p.tlIdx].Note = appendNote(s.timeline[p.tlIdx].Note,
		fmt.Sprintf("aborted after %d attempts, rolled back to checkpoint", p.out.attempts))
}

// requeueJob sends a running job whose reconfiguration aborted back to
// the admission queue: lease released, served time banked so a later
// re-admission resumes the remaining duration from the checkpoint. The
// version bump stales any scheduled completion.
func (s *sim) requeueJob(j *simJob) {
	name := j.spec.Name
	s.ledger.ReleaseAll(name)
	j.servedMin += s.now - j.lastStartMin
	j.alloc = nil
	j.deployed = false
	j.ver++
	j.requeues++
	s.requeues++
	s.reg.Add("coord.requeues", 1)
	if max := s.opts.Recovery.MaxRequeues; max > 0 && j.requeues > max {
		s.terminate(j, jobLost, EvLost,
			fmt.Sprintf("requeue budget exhausted after %d aborted reconfigurations", j.requeues))
		return
	}
	j.state = jobQueued
	s.queue = append(s.queue, name)
	s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvRequeue,
		Note: fmt.Sprintf("requeue %d: attempt budget exhausted", j.requeues)})
}

// attach notes what an outcome says where the loop will look for it:
// the job's deployed and verified flags, and for a commit or a restore
// the change it belongs to.
func (s *sim) attach(o *outcome) {
	j := s.jobs[o.job]
	switch o.kind {
	case cmdDeploy, cmdRestore:
		j.deployed = o.err == nil
	case cmdVerify:
		j.verified = o.err == nil
	}
	if o.p != nil {
		o.p.out = o
		s.inflight--
		j.inflight--
	}
}

// converge takes the PTC a commit left the runtime on for the job's
// decided PTC. A commit that ran as planned reports the value decided
// already has; one that re-planned on the chain reports where the
// runtime really is. When something newer has been decided since, that
// change's own commit settles it and reports in turn; a job that is no
// longer running has no decided PTC to keep.
func (s *sim) converge(p *pendingChange) {
	if j := p.j; j.state == jobRunning && j.ver == p.ver {
		j.decided = p.out.ptc
	}
}

func appendNote(note, extra string) string {
	if note == "" {
		return extra
	}
	return note + "; " + extra
}

// --- trace recording (all on the event loop; see internal/obs) ---

// evNames are the stable decision-span suffixes, by event kind.
var evNames = [...]string{evArrival: "arrival", evFailure: "failure", evComplete: "complete",
	evDevRecover: "dev-recover", evSpotNotice: "spot-notice", evSpotDeadline: "spot-deadline",
	evLinkDegrade: "link-degrade", evLinkRestore: "link-restore",
	evScale: "scale", evCancel: "cancel", evOutcome: "outcome"}

// traceDecision records one decision-plane span per processed event.
// The nil-tracer fast path returns before building the attrs map, so a
// run without observability pays zero allocations per event here (the
// hot rescore loop processes thousands of events at datacenter scale);
// TestDecisionObsOffNoAllocs guards this.
func (s *sim) traceDecision(e event) {
	if !s.tr.Enabled() {
		return
	}
	var attrs map[string]any
	switch e.kind {
	case evFailure, evDevRecover, evSpotNotice, evSpotDeadline:
		attrs = map[string]any{"dev": int(e.dev)}
	case evLinkDegrade, evLinkRestore:
		attrs = map[string]any{"worker": e.worker}
	case evScale:
		attrs = map[string]any{"gpus": e.gpus}
	}
	if e.kind == evSpotNotice || e.kind == evLinkDegrade {
		attrs["factor"] = e.factor
	}
	s.tr.Record(obs.Span{ID: s.tr.NewID(), Name: "decision/" + evNames[e.kind],
		Cat: obs.CatDecision, Job: e.job, TMin: e.time, Attrs: attrs})
}

// traceChange records a finalized change's exec spans: the root
// reconfiguration span (whose DurSec is exactly the downtime charge, so
// per-job root sums reconcile bit for bit with the job gauges) plus
// plan, per-attempt transform, rollback and backoff children laid out
// along the simulated clock. out is nil when the commit is still in
// flight, so only its first attempt is drawn here and its outcome event
// supplements the rest (traceAttempts from 2).
func (s *sim) traceChange(p *pendingChange, attempts int, down float64, out *outcome) {
	if !s.tr.Enabled() {
		return
	}
	j, ch := p.j, p.ch
	aborted := out != nil && out.aborted
	attrs := map[string]any{
		"gpus":     len(ch.Alloc),
		"config":   ch.Config.String(),
		"attempts": attempts,
		"sim_sec":  ch.SimSec,
	}
	if aborted {
		attrs["aborted"] = true
		attrs["moved_bytes_attempted"] = ch.Stats.MovedBytes
	} else {
		attrs["moved_bytes"] = ch.Stats.MovedBytes
	}
	var wallNs int64
	if out != nil {
		wallNs = out.applyNs
	}
	s.tr.Record(obs.Span{ID: p.spanID, Name: obs.ReconfigPrefix + s.timeline[p.tlIdx].Kind,
		Cat: obs.CatExec, Job: j.spec.Name, TMin: p.tMin, DurSec: down, WallNs: wallNs, Attrs: attrs})
	// Planning ran inside the decision the driver timed: the span has no
	// wall time of its own.
	s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanPlan,
		Cat: obs.CatExec, Job: j.spec.Name, TMin: p.tMin,
		Attrs: map[string]any{"assignments": ch.Stats.Assignments}})
	s.traceAttempts(p, 1, attempts, aborted)
}

// traceAttempts draws a change's transform attempts along the simulated
// clock, each failed one followed by its rollback and the backoff before
// the next. first is 1 for the whole sequence; 2 picks up where a change
// charged for a single attempt left off (its first transform span is
// drawn, what followed it was not known), so the trace's retry count
// still matches the coordinator's.
func (s *sim) traceAttempts(p *pendingChange, first, attempts int, aborted bool) {
	if !s.tr.Enabled() {
		return
	}
	child := func(name string, tMin, durSec float64, attrs map[string]any) {
		s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: name, Cat: obs.CatExec,
			Job: p.j.spec.Name, TMin: tMin, DurSec: durSec, Attrs: attrs})
	}
	cursor := p.tMin
	for i := 1; i <= attempts; i++ {
		failed := aborted || i < attempts
		if i >= first {
			a := map[string]any{"attempt": i}
			if failed {
				a["failed"] = true
			}
			child(obs.SpanTransform, cursor, p.ch.SimSec, a)
		}
		cursor += p.ch.SimSec / 60
		if failed && i >= first-1 {
			child(obs.SpanRollback, cursor, 0, nil)
		}
		if b := s.opts.Recovery.backoffSec(i); i < attempts && b > 0 {
			if i >= first-1 {
				child(obs.SpanBackoff, cursor, b, nil)
			}
			cursor += b / 60
		}
	}
}

// traceSuperseded closes the root span of a decided change that was
// never charged (its job was requeued earlier in the same batch), so
// datapath spans already recorded under it never dangle.
func (s *sim) traceSuperseded(p *pendingChange) {
	if !s.tr.Enabled() {
		return
	}
	s.tr.Record(obs.Span{ID: p.spanID, Name: obs.ReconfigPrefix + s.timeline[p.tlIdx].Kind,
		Cat: obs.CatExec, Job: p.j.spec.Name, TMin: p.tMin,
		Attrs: map[string]any{"superseded": true}})
}

// --- invariants and the result ---

// checkInvariants asserts, after every input, that the ledger is
// consistent and that each running job's decided allocation matches its
// lease exactly. Whether the runtimes caught up is the driver's to ask:
// only it knows when the chains are idle.
func (s *sim) checkInvariants() error {
	s.checks++
	if err := s.ledger.Validate(); err != nil {
		return err
	}
	for _, j := range s.running() {
		lease := s.ledger.Allocation(j.spec.Name)
		if len(lease) != len(j.alloc) {
			return fmt.Errorf("coordinator: %s lease has %d devices, runtime %d",
				j.spec.Name, len(lease), len(j.alloc))
		}
		onLease := map[cluster.DeviceID]bool{}
		for _, d := range lease {
			onLease[d] = true
		}
		for _, d := range j.alloc {
			if !onLease[d] {
				return fmt.Errorf("coordinator: %s runtime uses device %d outside its lease",
					j.spec.Name, d)
			}
		}
	}
	return nil
}

func (s *sim) result() Result {
	res := Result{
		Timeline:         s.timeline,
		Policy:           s.policy.Name(),
		MakespanMin:      s.now,
		ReconfigSecTotal: s.reconfigSec,
		Preemptions:      s.preemptions,
		PlansValidated:   s.plans,
		InvariantChecks:  s.checks,

		Retries:            s.retries,
		Requeues:           s.requeues,
		QuarantinedDevices: len(s.quarantined),
		RetryBytes:         s.retryBytes,
		RecoverySec:        s.recoverySec,
	}
	if s.now > 0 {
		res.MeanUtilization = s.utilIntegral / (float64(s.topo.NumDevices()) * s.now)
	}
	if s.reg != nil {
		s.reg.Gauge("coord.makespan_min").Set(res.MakespanMin)
		s.reg.Gauge("coord.mean_utilization").Set(res.MeanUtilization)
	}
	for _, name := range s.order {
		j := s.jobs[name]
		res.MovedBytesTotal += j.movedBytes
		res.Jobs = append(res.Jobs, JobSummary{
			Name:        name,
			Model:       j.modelName,
			GPUs:        j.spec.GPUs,
			ArrivalMin:  j.spec.ArrivalMin,
			AdmitMin:    j.admitMin,
			DoneMin:     j.doneMin,
			Resizes:     j.resizes,
			ReconfigSec: j.reconfigSec,
			MovedBytes:  j.movedBytes,
			Completed:   j.state == jobDone,
		})
	}
	return res
}
