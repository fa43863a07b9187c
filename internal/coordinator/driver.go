package coordinator

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/perfmodel"
)

// driver feeds one decision core its inputs and does the waiting the core
// may not do (doc.go): for the clock, for the mailbox, for the data plane.
// Run drives a core with the sim driver or the wall driver, as
// Options.Mode selects; a Service with the wall driver.
type driver struct {
	s    *sim
	mail mailbox
	// start is when the run began on the real clock: the wall driver's
	// zero of simulated time, and what Result.WallNs counts from.
	start time.Time
	// timed records what each decision took into decisionNs, Run's
	// Result.DecisionNs; a Service, which never ends, records nothing.
	timed      bool
	decisionNs []int64
	// journal, when set, sees every input the core consumes, in the order
	// it consumes them: each event stepped and each outcome the sim driver
	// attaches.
	journal func(event)
	// wedged is the first error a step returned under the wall driver: Run
	// ends on it; a Service steps nothing more and answers reads only.
	wedged error
}

// mailbox is how outcomes reach the driver: a chain posts without ever
// blocking or dropping, and the driver takes everything that has arrived,
// in arrival order. A token on ready says there may be something to take;
// the wall driver selects on it beside its timer.
type mailbox struct {
	mu    sync.Mutex
	q     []*outcome
	ready chan struct{} // capacity 1
}

func (m *mailbox) post(o *outcome) {
	m.mu.Lock()
	m.q = append(m.q, o)
	m.mu.Unlock()
	select {
	case m.ready <- struct{}{}:
	default:
	}
}

func (m *mailbox) take() []*outcome {
	m.mu.Lock()
	q := m.q
	m.q = nil
	m.mu.Unlock()
	return q
}

// newDriver validates the topology, applies option defaults, and builds a
// decision core over a data plane that posts to the driver's mailbox. The
// topology is health-isolated behind a clone so repeated runs over one
// caller-owned topology stay independent and deterministic.
func newDriver(topo *cluster.Topology, opts Options) (*driver, error) {
	if topo == nil || topo.NumDevices() == 0 {
		return nil, fmt.Errorf("coordinator: run needs a topology")
	}
	// Fail-stop handling marks devices in the topology (so placement
	// scoring and memoization generations see the post-failure cluster).
	topo = topo.Clone()
	if opts.Perf.GlobalBatch == 0 {
		opts.Perf = DefaultPerf()
	}
	if opts.DefragMaxSec == 0 {
		opts.DefragMaxSec = 30
	}
	if opts.Policy == nil {
		opts.Policy = FIFO{}
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.WallScale == 0 {
		opts.WallScale = 250 * time.Microsecond
	}
	s := &sim{
		topo:        topo,
		opts:        opts,
		policy:      opts.Policy,
		ledger:      NewLedger(topo),
		cache:       perfmodel.NewCache(),
		jobs:        map[string]*simJob{},
		modelJobs:   map[*model.Model]int{},
		quarantined: map[cluster.DeviceID]bool{},
		tr:          opts.Obs,
		reg:         opts.Obs.Metrics(),
	}
	if s.reg == nil {
		s.reg = opts.Metrics
	}
	d := &driver{s: s, mail: mailbox{ready: make(chan struct{}, 1)}}
	s.exec = newDataPlane(topo, opts, s.reg, d.mail.post)
	return d, nil
}

// Run executes a coordinator run: the jobs arrive, compete for the
// topology's devices under the configured Policy, resize elastically,
// survive the injected failures, and complete. In ModeSim (default) the
// run is deterministic; in ModeWall the event heap is paced on the real
// clock and independent jobs' reconfigurations overlap. It returns the
// per-job timeline and aggregate metrics, or the first invariant or
// state-management error.
func Run(topo *cluster.Topology, specs []JobSpec, failures []FailureSpec, opts Options) (Result, error) {
	d, err := newDriver(topo, opts)
	if err != nil {
		return Result{}, err
	}
	d.timed = true
	return d.run(specs, failures)
}

// run plays a scenario's script to its end under the driver Options.Mode
// selects, settles what is still in flight, and rejects what could never
// be placed.
func (d *driver) run(specs []JobSpec, failures []FailureSpec) (Result, error) {
	s := d.s
	if err := s.schedule(specs, failures); err != nil {
		return Result{}, err
	}
	d.start = time.Now()
	var err error
	if s.opts.Mode == ModeWall {
		err = d.wall(nil)
	} else {
		for e, ok := s.pop(); ok && err == nil; e, ok = s.pop() {
			err = d.step(e)
		}
	}
	if err != nil {
		_ = s.exec.join() // quiesce chains before reporting; err is the error to report
	} else if err = d.settle(); err == nil {
		s.rejectQueued()
	}
	return d.result(), err
}

// result is the core's Result with what only the driver measured.
func (d *driver) result() Result {
	res := d.s.result()
	res.WallNs = time.Since(d.start).Nanoseconds()
	res.DecisionNs = d.decisionNs
	return res
}

// step takes one input through the core: the decision, the booking of
// the changes it decided, a completion's second phase and its booking,
// the invariants. The driver times the two phases into one decision when
// it records them: what tenplex-coordd pays per decision, planning and
// pricing included. Executing the decided work and the audits are not
// timed: they are the data plane and the simulator's checking, not work a
// production control plane would do.
func (d *driver) step(e event) error {
	s := d.s
	if d.journal != nil {
		d.journal(e)
	}
	start := time.Now()
	err := s.step(e)
	took := time.Since(start)
	if err == nil {
		err = d.book()
	}
	if err == nil && s.defragDue {
		start = time.Now()
		err = s.defrag()
		took += time.Since(start)
		if err == nil {
			err = d.book()
		}
	}
	if d.timed {
		d.decisionNs = append(d.decisionNs, took.Nanoseconds())
	}
	if err != nil {
		return err
	}
	if err := s.checkInvariants(); err != nil {
		return err
	}
	if s.opts.Mode == ModeSim && (s.opts.AuditStride <= 1 || s.checks%s.opts.AuditStride == 0) {
		return d.audit()
	}
	return nil
}

// book books what the core has decided. The sim driver books behind a
// join: it waits until every chain is idle — the decided work executes
// here, fanned out across jobs — attaches what they reported, and books,
// until an abort's requeue and re-admission leave nothing more to book;
// every change is booked with its outcome, in decision order, which keeps
// sim traces a function of the scenario, and the audit after a step finds
// the chains idle. The wall driver waits for nothing: it books one attempt
// per change and steps each outcome as an input of its own.
func (d *driver) book() error {
	s := d.s
	for {
		if s.opts.Mode == ModeSim {
			if err := s.exec.join(); err != nil {
				return err
			}
			for _, o := range d.mail.take() {
				if d.journal != nil {
					d.journal(event{time: s.now, kind: evOutcome, job: o.job, out: o})
				}
				s.attach(o)
			}
		}
		if len(s.pending) == 0 {
			return nil
		}
		if err := s.book(); err != nil {
			return err
		}
	}
}

// receive steps every outcome that has arrived, in arrival order.
func (d *driver) receive() error {
	for _, o := range d.mail.take() {
		if err := d.step(event{time: d.s.now, kind: evOutcome, job: o.job, out: o}); err != nil {
			return err
		}
	}
	return nil
}

// settle ends a run: join the chains, step what they reported — a late
// abort requeues its job, and the re-admission that follows queues a fresh
// restore — until nothing is in flight, so that no job ends silently
// inconsistent; then audit every runtime still running. A completed job
// was audited by its verify command; a requeued one has no decided
// placement to audit against.
func (d *driver) settle() error {
	for {
		if err := d.s.exec.join(); err != nil {
			return err
		}
		if err := d.receive(); err != nil {
			return err
		}
		if d.s.inflight == 0 {
			return d.audit()
		}
	}
}

// audit asks the executor whether each running job's runtime sits exactly
// on its decided allocation under a valid PTC. The chains must be idle:
// behind the sim driver's join, or at the end of a run.
func (d *driver) audit() error {
	for _, j := range d.s.running() {
		if err := d.s.exec.audit(j.spec.Name, j.alloc); err != nil {
			return err
		}
	}
	return nil
}

// wall is the wall driver, Run's in ModeWall and every Service's. One
// simulated minute is WallScale of real time from d.start. It steps each
// outcome when its chain posts it, each heap event when its time comes —
// a completion that awaits an outcome once the outcome is in — and each
// of a Service's requests when it arrives; the chains keep executing
// meanwhile, and that overlap is the mode's point. Run's clock is its
// script: the core advances to each event's time, so a run in which no
// commit aborts has sim mode's timeline. A Service's clock is the real
// one. Run ends when its script has been stepped or a step fails; a
// Service when svc.stop closes, and a step that fails wedges it.
func (d *driver) wall(svc *Service) error {
	var cmds <-chan serviceCmd
	var stop <-chan struct{}
	if svc != nil {
		cmds, stop = svc.cmds, svc.stop
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		wait, mail, more := time.Hour, d.mail.ready, true
		if d.wedged == nil {
			d.clock(svc)
			if d.wedged = d.receive(); d.wedged == nil {
				wait, more, d.wedged = d.due()
			}
		}
		if svc == nil && (d.wedged != nil || !more) {
			return d.wedged
		}
		if d.wedged != nil {
			mail = nil // a wedged Service answers reads only
		}
		timer.Reset(wait)
		select {
		case <-stop:
			d.clock(svc)
			return d.wedged
		case c := <-cmds:
			d.clock(svc)
			c.resp <- d.command(c)
		case <-mail:
		case <-timer.C:
		}
	}
}

// clock moves a Service's core to the real clock; Run's follows its
// script.
func (d *driver) clock(svc *Service) {
	if svc != nil {
		d.s.advance(float64(time.Since(d.start)) / float64(d.s.opts.WallScale))
	}
}

// due steps every heap event whose time has come and says how long until
// the next one, if the heap holds any. A completion that awaits an outcome
// stays at the head of the heap and is waited for with the outcome alone.
func (d *driver) due() (time.Duration, bool, error) {
	s := d.s
	for {
		e, ok := s.pop()
		if !ok {
			return time.Hour, false, nil
		}
		// In floating point until it is known to fit: a job submitted with
		// duration_min 1e10 completes further off than a Duration can say.
		wait := e.time*float64(s.opts.WallScale) - float64(time.Since(d.start))
		if s.awaits(e) {
			wait = float64(time.Hour)
		}
		if wait > 0 {
			s.pushAt(e) // under its own seq: nothing is reordered
			return time.Duration(math.Min(wait, float64(time.Hour))), true, nil
		}
		if err := d.step(e); err != nil {
			return 0, true, err
		}
	}
}
