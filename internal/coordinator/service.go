package coordinator

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/obs"
)

// Service runs the coordinator's decision plane as a long-running
// wall-clock control plane instead of a finite scenario: jobs are
// submitted, scaled and canceled while the service runs, and the event
// heap is paced on the real clock (one simulated minute per WallScale
// of real time) by the wall driver Run's ModeWall uses (driver.go).
//
// Concurrency model: ONE goroutine — the driver's loop — owns the core.
// A request is turned into a command, enqueued, and stepped as an event
// between heap events (a submit is an arrival, an injected failure a
// failure, scale and cancel kinds of their own), so no caller ever
// touches the ledger, the heap or a scheduling choice concurrently and a
// traced service records a decision span for each. The loop never waits
// for the data plane (doc.go): a change is planned and priced on the loop
// against the job's decided PTC, its work goes through the executor to
// the bounded pool, and every outcome comes back through the mailbox the
// loop selects on beside its timer and its commands. So Submit, Scale,
// Cancel and every status read answer while a job's deploy or
// reconfiguration is still moving bytes. Submit returning means admitted
// (or queued) and leased; JobStatus.Deployed follows when the deploy's
// outcome has arrived. With a retry budget a commit may abort: the job is
// requeued as in Run, and its completion is held until its outcomes are
// in (awaits). Any other command error wedges the service when its
// outcome is stepped. The service layer adds no scheduling behavior of
// its own.
type Service struct {
	cmds chan serviceCmd
	stop chan struct{}
	done chan struct{}

	stopOnce sync.Once
	commands atomic.Int64

	// mu guards the subscriber registry; publish runs on the loop,
	// cancel on caller goroutines.
	mu     sync.Mutex
	subs   map[int]chan TimelineEvent
	subSeq int

	// d is the wall driver and its core: only the loop goroutine touches
	// them, but for the registry, which is set before the loop starts.
	d *driver
	// Written when the loop ends; done orders that before Stop's reads.
	result  Result
	stopErr error
}

// serviceCmd is one call into the loop. A read runs fn. A request for a
// change carries the event to step, and fn, when set, checks or registers
// what the event needs first.
type serviceCmd struct {
	fn   func(s *sim) error
	e    *event
	resp chan error
}

// ErrStopped is returned by every Service method after Stop.
var ErrStopped = errors.New("coordinator: service stopped")

// clientErr marks a request-validation failure (bad spec, unknown job,
// infeasible scale target) — the request is refused but the decision
// plane is untouched and the service keeps running. Any other error
// from a mutating command wedges the service: reads still answer, but
// further mutations are refused with the original fault.
type clientErr struct{ err error }

func (e clientErr) Error() string { return e.err.Error() }
func (e clientErr) Unwrap() error { return e.err }

func clientErrf(format string, args ...any) error {
	return clientErr{fmt.Errorf(format, args...)}
}

// IsClientError reports whether err was a request-validation failure
// rather than a decision-plane fault — the API layer maps the former
// to 4xx responses and the latter to 500s.
func IsClientError(err error) bool {
	var ce clientErr
	return errors.As(err, &ce)
}

// StartService builds the decision plane over topo and starts the
// service loop. Mode is forced to ModeWall; chaos injection is not
// supported (it schedules faults against a finite scenario script).
// opts.Stores points the per-job device stores at remote tenplex-store
// servers; opts.Metrics receives the coordinator's accounting.
func StartService(topo *cluster.Topology, opts Options) (*Service, error) {
	if opts.Chaos != nil {
		return nil, fmt.Errorf("coordinator: service does not support chaos plans")
	}
	opts.Mode = ModeWall
	d, err := newDriver(topo, opts)
	if err != nil {
		return nil, err
	}
	svc := &Service{
		cmds: make(chan serviceCmd),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		subs: map[int]chan TimelineEvent{},
		d:    d,
	}
	d.s.onEvent = svc.publish
	d.start = time.Now()
	go svc.run()
	return svc, nil
}

// run is the service loop: the wall driver until Stop, then the settle of
// everything in flight — unless the loop wedged — and the result.
func (svc *Service) run() {
	d := svc.d
	err := d.wall(svc)
	if err == nil {
		err = d.settle()
	}
	svc.result, svc.stopErr = d.result(), err
	svc.mu.Lock()
	for id, ch := range svc.subs {
		delete(svc.subs, id)
		close(ch)
	}
	svc.mu.Unlock()
	close(svc.done)
}

// command answers one call on the loop. A read runs as it is. A request
// for a change is checked, then stepped as an event at the service clock,
// unless the core has wedged; an error that is not the client's wedges it.
func (d *driver) command(c serviceCmd) error {
	if c.e == nil {
		return c.fn(d.s)
	}
	if d.wedged != nil {
		return fmt.Errorf("coordinator: service wedged: %w", d.wedged)
	}
	if c.fn != nil {
		if err := c.fn(d.s); err != nil {
			return err
		}
	}
	e := *c.e
	e.time = d.s.now
	err := d.step(e)
	if err != nil && !IsClientError(err) {
		d.wedged = err
	}
	return err
}

// Stop shuts the service down: the loop quiesces execution-plane
// chains, settles every decided change, audits final state and
// returns the run's Result — the same shape a finished Run returns.
// Stop is idempotent; every other method returns ErrStopped afterward.
func (svc *Service) Stop() (Result, error) {
	svc.stopOnce.Do(func() { close(svc.stop) })
	<-svc.done
	return svc.result, svc.stopErr
}

// call runs fn on the service loop, then steps e there if it is set, and
// waits for the answer.
func (svc *Service) call(fn func(s *sim) error, e *event) error {
	c := serviceCmd{fn: fn, e: e, resp: make(chan error, 1)}
	select {
	case svc.cmds <- c:
		svc.commands.Add(1)
	case <-svc.done:
		return ErrStopped
	}
	select {
	case err := <-c.resp:
		return err
	case <-svc.done:
		return ErrStopped
	}
}

// exec runs a read on the service loop and waits for its answer.
func (svc *Service) exec(fn func(s *sim) error) error { return svc.call(fn, nil) }

// CommandCount reports how many commands reached the decision plane —
// the API layer's tests use it to prove rejected requests (bad token,
// quota breach) never touched the loop.
func (svc *Service) CommandCount() int64 { return svc.commands.Load() }

// Submit registers a new job; it arrives on the decision plane
// immediately (ArrivalMin is stamped with the service clock, any value
// in the spec is ignored) and competes for devices under the
// configured policy like any scenario job.
func (svc *Service) Submit(spec JobSpec) error {
	return svc.call(func(s *sim) error {
		spec.ArrivalMin = s.now
		if _, err := s.addJob(spec); err != nil {
			return clientErr{err}
		}
		return nil
	}, &event{kind: evArrival, job: spec.Name})
}

// Scale retargets a job's requested size (see onScale).
func (svc *Service) Scale(name string, gpus int) error {
	return svc.call(nil, &event{kind: evScale, job: name, gpus: gpus})
}

// Cancel removes a queued or running job (see onCancel).
func (svc *Service) Cancel(name string) error {
	return svc.call(nil, &event{kind: evCancel, job: name})
}

// InjectFailure fail-stops a device through the same path a scenario
// failure takes: the owner recovers onto surviving devices or is
// declared lost.
func (svc *Service) InjectFailure(dev cluster.DeviceID) error {
	return svc.call(func(s *sim) error {
		if int(dev) < 0 || int(dev) >= s.topo.NumDevices() {
			return clientErrf("unknown device %d", dev)
		}
		return nil
	}, &event{kind: evFailure, dev: dev})
}

// JobStatus is a point-in-time snapshot of one job, JSON-stable for
// the API layer.
type JobStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Model    string `json:"model"`
	GPUs     int    `json:"gpus"`
	MinGPUs  int    `json:"min_gpus"`
	MaxGPUs  int    `json:"max_gpus"`
	Priority int    `json:"priority,omitempty"`

	Alloc  []int  `json:"alloc,omitempty"`
	Config string `json:"config,omitempty"`

	ArrivalMin float64 `json:"arrival_min"`
	AdmitMin   float64 `json:"admit_min,omitempty"`
	DoneMin    float64 `json:"done_min,omitempty"`
	ServedMin  float64 `json:"served_min,omitempty"`

	// Recovery and reconfiguration metrics.
	Resizes     int     `json:"resizes"`
	Requeues    int     `json:"requeues,omitempty"`
	ReconfigSec float64 `json:"reconfig_sec"`
	MovedBytes  int64   `json:"moved_bytes"`
	// Deployed is true once the job's state is on the device stores of
	// its lease: set when the outcome of the deploy (after a re-admission,
	// the restore) has arrived, cleared while a requeued job waits. Admission does not
	// wait for it — a job is "running" from the moment it is admitted and
	// leased — so whoever looks at the stores themselves waits for this.
	Deployed bool `json:"deployed"`
	// Verified is true once the completion-time oracle matched the
	// job's reassembled state bit for bit against its initial tensors.
	Verified bool `json:"verified"`
}

func (svc *Service) snapshotJob(s *sim, j *simJob) JobStatus {
	st := JobStatus{
		Name:        j.spec.Name,
		State:       j.state.String(),
		Model:       j.modelName,
		GPUs:        j.spec.GPUs,
		MinGPUs:     j.spec.MinGPUs,
		MaxGPUs:     j.spec.MaxGPUs,
		Priority:    j.spec.Priority,
		ArrivalMin:  j.spec.ArrivalMin,
		AdmitMin:    j.admitMin,
		DoneMin:     j.doneMin,
		ServedMin:   j.servedMin,
		Resizes:     j.resizes,
		Requeues:    j.requeues,
		ReconfigSec: j.reconfigSec,
		MovedBytes:  j.movedBytes,
		Deployed:    j.deployed,
		Verified:    j.verified,
	}
	if j.state == jobRunning {
		st.ServedMin = j.servedMin + (s.now - j.lastStartMin)
		st.Config = j.cfg.String()
		for _, d := range j.alloc {
			st.Alloc = append(st.Alloc, int(d))
		}
	}
	return st
}

// Job returns one job's snapshot.
func (svc *Service) Job(name string) (JobStatus, error) {
	var st JobStatus
	err := svc.exec(func(s *sim) error {
		j := s.jobs[name]
		if j == nil {
			return clientErrf("unknown job %q", name)
		}
		st = svc.snapshotJob(s, j)
		return nil
	})
	return st, err
}

// Jobs returns every job's snapshot in submission order.
func (svc *Service) Jobs() ([]JobStatus, error) {
	var out []JobStatus
	err := svc.exec(func(s *sim) error {
		for _, name := range s.order {
			out = append(out, svc.snapshotJob(s, s.jobs[name]))
		}
		return nil
	})
	return out, err
}

// ClusterStatus summarizes topology, ledger and scheduler state.
type ClusterStatus struct {
	Devices     int  `json:"devices"`
	Workers     int  `json:"workers"`
	Free        int  `json:"free"`
	Leased      int  `json:"leased"`
	Healthy     int  `json:"healthy"`
	Quarantined int  `json:"quarantined"`
	Placement   bool `json:"placement"`

	Policy string  `json:"policy"`
	NowMin float64 `json:"now_min"`

	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Rejected  int `json:"rejected"`
	Lost      int `json:"lost"`
	Canceled  int `json:"canceled"`

	Preemptions    int     `json:"preemptions"`
	PlansValidated int     `json:"plans_validated"`
	Requeues       int     `json:"requeues"`
	Utilization    float64 `json:"utilization"`

	// Err reports a wedged decision plane (mutations refused).
	Err string `json:"err,omitempty"`
}

// Cluster returns the current cluster summary.
func (svc *Service) Cluster() (ClusterStatus, error) {
	var cs ClusterStatus
	err := svc.exec(func(s *sim) error {
		cs = ClusterStatus{
			Devices:        s.topo.NumDevices(),
			Workers:        s.topo.NumWorkers(),
			Free:           s.ledger.FreeCount(),
			Leased:         s.ledger.LeasedCount(),
			Healthy:        s.ledger.Healthy(),
			Quarantined:    len(s.quarantined),
			Placement:      s.opts.Placement,
			Policy:         s.policy.Name(),
			NowMin:         s.now,
			Preemptions:    s.preemptions,
			PlansValidated: s.plans,
			Requeues:       s.requeues,
		}
		var n [jobCanceled + 1]int
		for _, j := range s.jobs {
			n[j.state]++
		}
		cs.Queued, cs.Running, cs.Completed = n[jobQueued], n[jobRunning], n[jobDone]
		cs.Rejected, cs.Lost, cs.Canceled = n[jobRejected], n[jobLost], n[jobCanceled]
		if s.now > 0 {
			cs.Utilization = s.utilIntegral / (float64(s.topo.NumDevices()) * s.now)
		}
		if svc.d.wedged != nil {
			cs.Err = svc.d.wedged.Error()
		}
		return nil
	})
	return cs, err
}

// Subscribe registers a timeline listener: it returns a copy of every
// event recorded so far plus a channel of subsequent events, atomically
// ordered with respect to the decision plane (no gap, no duplicate).
// Events for in-flight changes stream with placeholder prices; the
// final prices land in the stored timeline only. A subscriber that
// falls buf events behind is disconnected (its channel is closed)
// rather than ever blocking the loop; cancel is idempotent.
func (svc *Service) Subscribe(buf int) (past []TimelineEvent, ch <-chan TimelineEvent, cancel func(), err error) {
	if buf <= 0 {
		buf = 1024
	}
	c := make(chan TimelineEvent, buf)
	var id int
	err = svc.exec(func(s *sim) error {
		past = append([]TimelineEvent(nil), s.timeline...)
		svc.mu.Lock()
		id = svc.subSeq
		svc.subSeq++
		svc.subs[id] = c
		svc.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	cancel = func() {
		svc.mu.Lock()
		if cc, ok := svc.subs[id]; ok {
			delete(svc.subs, id)
			close(cc)
		}
		svc.mu.Unlock()
	}
	return past, c, cancel, nil
}

// publish fans one recorded timeline event out to subscribers; it runs
// on the loop inside record().
func (svc *Service) publish(e TimelineEvent) {
	svc.mu.Lock()
	for id, ch := range svc.subs {
		select {
		case ch <- e:
		default:
			delete(svc.subs, id)
			close(ch)
		}
	}
	svc.mu.Unlock()
}

// Metrics returns the registry the service accounts into (nil when
// neither Options.Obs nor Options.Metrics was set). The registry is
// concurrency-safe; reading it does not touch the decision plane.
func (svc *Service) Metrics() *obs.Registry { return svc.d.s.reg }
