package coordinator

import (
	"errors"
	"fmt"
	"math"
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
// of real time, exactly like Run's ModeWall).
//
// Concurrency model: ONE goroutine — the service loop — owns the sim.
// It is the same single-threaded decision plane Run drives, through the
// same step: a request is turned into a command, enqueued, and stepped
// as an event between heap events (a submit is an arrival, an injected
// failure a failure, scale and cancel kinds of their own), so no caller
// ever touches the ledger, the heap or a scheduling choice concurrently
// and a traced service records a decision span for each. The loop never
// waits for the data plane (doc.go): a change is planned and priced on
// the loop against the job's decided PTC, its work goes through the
// executor to the bounded pool, and every outcome comes back through
// the mailbox the loop selects on beside its timer and its commands —
// there is no poll. So Submit, Scale, Cancel and every status read
// answer while a job's deploy or reconfiguration is still moving bytes.
// Submit returning means admitted (or queued) and leased;
// JobStatus.Deployed follows when the deploy's outcome has arrived. The
// Service is fail-fast: no commit aborts, and a command's error wedges
// the service when its outcome is stepped. The service layer adds no
// scheduling behavior of its own.
type Service struct {
	cmds   chan serviceCmd
	stopCh chan struct{}
	done   chan struct{}

	stopOnce sync.Once
	commands atomic.Int64

	// mu guards the subscriber registry; publish runs on the loop,
	// cancel on caller goroutines.
	mu     sync.Mutex
	subs   map[int]chan TimelineEvent
	subSeq int

	start     time.Time
	wallScale time.Duration
	reg       *obs.Registry

	// Loop-owned (only the loop goroutine and post-loop readers touch
	// these; done orders finish before Stop's reads).
	wedged  error
	result  Result
	stopErr error
}

type serviceCmd struct {
	fn     func(s *sim) error
	mutate bool
	resp   chan error
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
	s, err := newSim(topo, opts)
	if err != nil {
		return nil, err
	}
	svc := &Service{
		cmds:      make(chan serviceCmd),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
		subs:      map[int]chan TimelineEvent{},
		start:     time.Now(),
		wallScale: s.opts.WallScale,
		reg:       s.reg,
	}
	s.onEvent = svc.publish
	go svc.loop(s)
	return svc, nil
}

// nowMin converts elapsed wall time to simulated minutes.
func (svc *Service) nowMin() float64 {
	return float64(time.Since(svc.start)) / float64(svc.wallScale)
}

func (svc *Service) loop(s *sim) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Arm the wake-up for the next due heap event; outcomes and
		// commands wake the loop themselves. Wedged, it stops consuming
		// the heap and the mailbox and answers reads only.
		wait := time.Hour
		if svc.wedged == nil && s.evq.Len() > 0 {
			// In floating point until it is known to fit: a job submitted
			// with duration_min 1e10 completes further off than a Duration
			// can say, and the overflow came back as a wait of zero — a
			// loop spinning at full speed until then.
			due := s.evq[0].time*float64(svc.wallScale) - float64(time.Since(svc.start))
			wait = time.Duration(math.Max(0, math.Min(due, float64(time.Hour))))
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)

		select {
		case <-svc.stopCh:
			svc.finish(s)
			return
		case cmd := <-svc.cmds:
			svc.commands.Add(1)
			s.advance(svc.nowMin())
			var err error
			if cmd.mutate && svc.wedged != nil {
				err = fmt.Errorf("coordinator: service wedged: %w", svc.wedged)
			} else if err = cmd.fn(s); cmd.mutate && err != nil && !IsClientError(err) {
				svc.wedged = err
			}
			cmd.resp <- err
		case <-s.mail.ready:
			if svc.wedged == nil {
				s.advance(svc.nowMin())
				svc.wedged = s.receive()
			}
		case <-timer.C:
			if svc.wedged == nil {
				s.advance(svc.nowMin())
				svc.wedged = svc.pump(s)
			}
		}
	}
}

// pump steps every heap event that is due — Run's loop, paced by the
// service timer instead of waits.
func (svc *Service) pump(s *sim) error {
	for {
		e, ok := s.pop()
		if !ok {
			return nil
		}
		if e.time > svc.nowMin() {
			s.pushAt(e)
			return nil
		}
		if err := s.step(e); err != nil {
			return err
		}
	}
}

// finish settles the run — joins the chains, steps what they reported,
// audits final state — then snapshots the result and wakes Stop.
func (svc *Service) finish(s *sim) {
	s.advance(svc.nowMin())
	err := svc.wedged
	if err == nil {
		err = s.settle()
	}
	svc.result = s.result(svc.start)
	svc.stopErr = err
	svc.mu.Lock()
	for id, ch := range svc.subs {
		delete(svc.subs, id)
		close(ch)
	}
	svc.mu.Unlock()
	close(svc.done)
}

// Stop shuts the service down: the loop quiesces execution-plane
// chains, settles every decided change, audits final state and
// returns the run's Result — the same shape a finished Run returns.
// Stop is idempotent; every other method returns ErrStopped afterward.
func (svc *Service) Stop() (Result, error) {
	svc.stopOnce.Do(func() { close(svc.stopCh) })
	<-svc.done
	return svc.result, svc.stopErr
}

// exec runs fn on the service loop and waits for its answer.
func (svc *Service) exec(mutate bool, fn func(s *sim) error) error {
	cmd := serviceCmd{fn: fn, mutate: mutate, resp: make(chan error, 1)}
	select {
	case svc.cmds <- cmd:
	case <-svc.done:
		return ErrStopped
	}
	select {
	case err := <-cmd.resp:
		return err
	case <-svc.done:
		return ErrStopped
	}
}

// CommandCount reports how many commands reached the decision plane —
// the API layer's tests use it to prove rejected requests (bad token,
// quota breach) never touched the loop.
func (svc *Service) CommandCount() int64 { return svc.commands.Load() }

// request steps one event on the service loop, stamped with the
// service clock, and waits for the answer.
func (svc *Service) request(e event) error {
	return svc.exec(true, func(s *sim) error {
		e.time = s.now
		return s.step(e)
	})
}

// Submit registers a new job; it arrives on the decision plane
// immediately (ArrivalMin is stamped with the service clock, any value
// in the spec is ignored) and competes for devices under the
// configured policy like any scenario job.
func (svc *Service) Submit(spec JobSpec) error {
	return svc.exec(true, func(s *sim) error {
		spec.ArrivalMin = s.now
		if _, err := s.addJob(spec); err != nil {
			return clientErr{err}
		}
		return s.step(event{time: s.now, kind: evArrival, job: spec.Name})
	})
}

// Scale retargets a job's requested size (see onScale).
func (svc *Service) Scale(name string, gpus int) error {
	return svc.request(event{kind: evScale, job: name, gpus: gpus})
}

// Cancel removes a queued or running job (see onCancel).
func (svc *Service) Cancel(name string) error {
	return svc.request(event{kind: evCancel, job: name})
}

// InjectFailure fail-stops a device through the same path a scenario
// failure takes: the owner recovers onto surviving devices or is
// declared lost.
func (svc *Service) InjectFailure(dev cluster.DeviceID) error {
	return svc.exec(true, func(s *sim) error {
		if int(dev) < 0 || int(dev) >= s.topo.NumDevices() {
			return clientErrf("unknown device %d", dev)
		}
		return s.step(event{time: s.now, kind: evFailure, dev: dev})
	})
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
	err := svc.exec(false, func(s *sim) error {
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
	err := svc.exec(false, func(s *sim) error {
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
	err := svc.exec(false, func(s *sim) error {
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
		if svc.wedged != nil {
			cs.Err = svc.wedged.Error()
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
	err = svc.exec(false, func(s *sim) error {
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
func (svc *Service) Metrics() *obs.Registry { return svc.reg }
