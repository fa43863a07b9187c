package coordinator

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/perfmodel"
)

// --- event handlers ---

// dispatch routes one event to its decision-plane handler: the single
// way into a handler, for Run's loop, the Service's and a test's alike.
func (s *sim) dispatch(e event) error {
	switch e.kind {
	case evArrival:
		return s.onArrival(e.job)
	case evComplete:
		return s.onComplete(e.job)
	case evFailure:
		return s.onFailure(e.dev)
	case evDevRecover:
		return s.onDevRecover(e.dev)
	case evSpotNotice:
		return s.onSpotNotice(e.dev, e.factor)
	case evSpotDeadline:
		return s.onSpotDeadline(e.dev)
	case evLinkDegrade:
		return s.onLinkChange(e.worker, e.factor)
	case evLinkRestore:
		return s.onLinkChange(e.worker, 1)
	case evScale:
		return s.onScale(e.job, e.gpus)
	case evCancel:
		return s.onCancel(e.job)
	case evOutcome:
		return s.onOutcome(e.out)
	}
	return nil
}

func (s *sim) onArrival(name string) error {
	j := s.jobs[name]
	j.state = jobQueued
	s.queue = append(s.queue, name)
	s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvSubmit,
		Note: fmt.Sprintf("wants %d GPUs [%d, %d], %.0f min",
			j.spec.GPUs, j.spec.MinGPUs, j.spec.MaxGPUs, j.spec.DurationMin)})
	return s.reschedule()
}

func (s *sim) onComplete(name string) error {
	j := s.jobs[name]
	// The end-to-end correctness oracle: the verify command reassembles
	// the job's state and compares it bit for bit against the initial
	// tensors, on the job's chain, after every committed change. With a
	// pool, a verification failure comes back as the command's outcome —
	// the run still errors out, but the timeline returned alongside that
	// error may already hold this completion event (on-error timelines
	// are provisional; only an error-free Run vouches for them).
	if err := s.exec.do(command{kind: cmdVerify, job: name, span: s.tr.NewID(), tMin: s.now,
		alloc: j.alloc, resizes: j.resizes}); err != nil {
		return err
	}
	s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvComplete,
		GPUs: 0, Note: fmt.Sprintf("state verified intact after %d resizes", j.resizes)})
	s.ledger.ReleaseAll(name)
	s.cache.DropJob(name)
	j.state = jobDone
	j.doneMin = s.now
	s.releaseModel(j)
	s.defragDue = true
	return s.reschedule()
}

// onOutcome takes one outcome as it arrives (the wall driver; the sim
// driver attaches outcomes behind its join before book). A deploy or a
// verify has said what it has to say once it is attached. A commit or a
// restore belongs to a change book has charged a single attempt: the
// retries are counted now,
// and an abort, unless something newer has been decided since or the
// job no longer runs, requeues the job — its already-scheduled
// completion is staled by the requeue's version bump.
func (s *sim) onOutcome(o *outcome) error {
	s.attach(o)
	if o.err != nil && !o.aborted {
		return o.err
	}
	p := o.p
	if p == nil {
		return nil
	}
	s.countRetries(p, o.attempts)
	s.traceAttempts(p, 2, o.attempts, o.aborted)
	if !o.aborted {
		s.converge(p)
		return nil
	}
	if p.j.state != jobRunning || p.j.ver != p.ver {
		return nil
	}
	s.noteAbort(p)
	s.requeueJob(p.j)
	return s.reschedule()
}

// onScale retargets a job's requested size. Growth happens through the
// normal elastic expansion path as capacity allows; shrinking below the
// current lease releases devices through a priced scale-in
// reconfiguration immediately. A request that cannot be met is refused
// before anything is written.
func (s *sim) onScale(name string, gpus int) error {
	j := s.jobs[name]
	if j == nil {
		return clientErrf("unknown job %q", name)
	}
	if j.state != jobQueued && j.state != jobRunning {
		return clientErrf("job %q is %s; cannot scale", name, j.state)
	}
	if gpus < 1 || gpus > s.topo.NumDevices() {
		return clientErrf("job %q: scale target %d outside [1, %d]", name, gpus, s.topo.NumDevices())
	}
	var alloc cluster.Allocation // what a target below the current lease leaves of it
	var est perfmodel.Estimate
	if j.state == jobRunning && len(j.alloc) > gpus {
		n, e, ok := s.bestAtMost(j.spec.Model, gpus, min(j.spec.MinGPUs, gpus))
		if !ok || n >= len(j.alloc) {
			return clientErrf("job %q: no feasible configuration at %d GPUs", name, gpus)
		}
		alloc, est = append(cluster.Allocation(nil), j.alloc[:n]...), e
	}
	j.spec.GPUs = gpus
	j.spec.MinGPUs = min(j.spec.MinGPUs, gpus)
	j.spec.MaxGPUs = max(j.spec.MaxGPUs, gpus)
	if alloc != nil {
		if err := s.shrink(j, est, alloc, nil, EvScaleIn, "scale request"); err != nil {
			return err
		}
	}
	return s.reschedule()
}

// onCancel removes a queued or running job. A running job's devices are
// released immediately; its in-flight execution-plane work is staled by
// the version bump and drains harmlessly (store paths are per-job).
func (s *sim) onCancel(name string) error {
	j := s.jobs[name]
	if j == nil {
		return clientErrf("unknown job %q", name)
	}
	switch j.state {
	case jobQueued:
		s.dequeue(name)
	case jobRunning:
		j.servedMin += s.now - j.lastStartMin
		s.ledger.ReleaseAll(name)
	default:
		return clientErrf("job %q is already %s", name, j.state)
	}
	j.alloc = nil
	s.terminate(j, jobCanceled, EvCancel, "canceled by request")
	return s.reschedule()
}

func (s *sim) onFailure(dev cluster.DeviceID) error {
	return s.deviceDown(dev, fmt.Sprintf("device %d failed on worker %d", dev, s.topo.WorkerOf(dev)))
}

// relocate picks where a job that keeps only keep of its devices goes:
// onto those plus a replacement when one is free, cut to the largest
// feasible size. A nil allocation means there is nowhere.
func (s *sim) relocate(j *simJob, keep cluster.Allocation) (cluster.Allocation, perfmodel.Estimate, []cluster.DeviceID) {
	repl, _ := s.ledger.Pick(1, keep)
	full := append(append(cluster.Allocation(nil), keep...), repl...)
	n, est, ok := s.bestAtMost(j.spec.Model, len(full), 1)
	if !ok {
		return nil, est, nil
	}
	return full[:n], est, repl
}

// terminate ends a job that will not complete — lost or canceled: the
// version bump stales its scheduled completion and whatever outcome is
// still to come.
func (s *sim) terminate(j *simJob, state jobState, kind, note string) {
	s.cache.DropJob(j.spec.Name)
	j.state, j.doneMin = state, s.now
	j.ver++
	s.record(TimelineEvent{TimeMin: s.now, Job: j.spec.Name, Kind: kind, Note: note})
	s.releaseTerminal(j)
}

// deviceDown is the shared fail-stop path: mark the device failed and
// recover its owner onto the surviving devices (plus a replacement when
// one is free), or declare the job lost when nothing is left.
func (s *sim) deviceDown(dev cluster.DeviceID, note string) error {
	if s.ledger.Failed(dev) {
		return nil // already dead
	}
	owner := s.ledger.MarkFailed(dev)
	s.record(TimelineEvent{TimeMin: s.now, Job: owner, Kind: EvFailure, Note: note})
	if owner == "" {
		return nil
	}
	j := s.jobs[owner]
	if j.state != jobRunning {
		return nil
	}
	j.alloc = append(cluster.Allocation(nil), s.ledger.Allocation(owner)...) // dev already removed
	alloc, est, repl := s.relocate(j, j.alloc)
	if alloc == nil {
		s.ledger.ReleaseAll(owner)
		s.terminate(j, jobLost, EvLost, "no healthy devices to recover onto")
		return nil
	}
	recNote := fmt.Sprintf("recovered from loss of device %d", dev)
	if len(repl) > 0 && alloc.Contains(repl[0]) {
		recNote += fmt.Sprintf(", replacement device %d", repl[0])
	}
	if err := s.shrink(j, est, alloc, []cluster.DeviceID{dev}, EvRecover, recNote); err != nil {
		return err
	}
	// A size-constrained recovery may have released healthy devices;
	// let the queue and the other jobs use them.
	return s.reschedule()
}

// onDevRecover handles a flapping device coming back. The suspicion-
// count failure detector decides whether to trust it: a device that
// already failed SuspicionThreshold times stays quarantined instead of
// being re-leased — which is what stops a flapping device from
// repeatedly eating jobs' reconfiguration budgets.
func (s *sim) onDevRecover(dev cluster.DeviceID) error {
	if !s.ledger.Failed(dev) {
		return nil // never failed, or already recovered
	}
	if th := s.opts.Recovery.SuspicionThreshold; th > 0 && s.ledger.Suspicion(dev) >= th {
		if !s.quarantined[dev] {
			s.quarantined[dev] = true
			s.reg.Add("coord.quarantined_devices", 1)
			s.record(TimelineEvent{TimeMin: s.now, Kind: EvQuarantine,
				Note: fmt.Sprintf("device %d quarantined after %d failures", dev, s.ledger.Suspicion(dev))})
		}
		return nil
	}
	s.ledger.MarkRecovered(dev)
	s.record(TimelineEvent{TimeMin: s.now, Kind: EvDevRecover,
		Note: fmt.Sprintf("device %d back on worker %d", dev, s.topo.WorkerOf(dev))})
	return s.reschedule()
}

// onSpotNotice handles a spot-reclamation notice: the device is marked
// draining (alive, but never re-leased) and its owner — if any — is
// proactively migrated off it inside the window. Unlike a failure, the
// leaving device's state is still readable, so the migration needs no
// degraded source PTC and no storage fallback.
func (s *sim) onSpotNotice(dev cluster.DeviceID, windowMin float64) error {
	if s.ledger.Failed(dev) {
		return nil
	}
	s.ledger.SetDraining(dev, true)
	owner, _ := s.ledger.Owner(dev)
	s.record(TimelineEvent{TimeMin: s.now, Job: owner, Kind: EvSpotNotice,
		Note: fmt.Sprintf("device %d reclaimed in %.0f min", dev, windowMin)})
	if owner == "" {
		return nil
	}
	j := s.jobs[owner]
	if j == nil || j.state != jobRunning {
		return nil
	}
	keep := cluster.Allocation(nil)
	for _, d := range j.alloc {
		if d != dev {
			keep = append(keep, d)
		}
	}
	alloc, est, _ := s.relocate(j, keep)
	if alloc == nil {
		return nil // nowhere to migrate; the deadline will handle it
	}
	note := fmt.Sprintf("migrated off draining device %d", dev)
	return s.shrink(j, est, alloc, nil, EvRedeploy, note)
}

// onSpotDeadline fires when the reclamation window closes: a device
// still present is withdrawn — from here on, exactly a fail-stop
// failure for whatever is still placed on it.
func (s *sim) onSpotDeadline(dev cluster.DeviceID) error {
	if s.ledger.Failed(dev) {
		return nil
	}
	return s.deviceDown(dev, fmt.Sprintf("spot reclamation: device %d withdrawn from worker %d",
		dev, s.topo.WorkerOf(dev)))
}

// onLinkChange reprices one worker's NIC: factor < 1 opens a
// degradation window, factor == 1 closes it. Reconfigurations priced
// while the window is open, placement's migration prices among them, run
// against the degraded bandwidth (netsim reads Topology.WorkerNetBW); the
// perfmodel's throughput estimates deliberately stay on nominal bandwidth.
func (s *sim) onLinkChange(worker int, factor float64) error {
	s.topo.SetNetScale(worker, factor)
	kind, note := EvLinkDegrade, fmt.Sprintf("worker %d NIC at %.0f%% bandwidth", worker, factor*100)
	if factor == 1 {
		kind, note = EvLinkRestore, fmt.Sprintf("worker %d NIC restored", worker)
	}
	s.record(TimelineEvent{TimeMin: s.now, Kind: kind, Note: note})
	return nil
}
