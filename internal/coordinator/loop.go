package coordinator

import (
	"container/heap"
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/obs"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
)

// --- event queue ---

type evKind int

const (
	evArrival evKind = iota
	evFailure
	evComplete
	evDevRecover
	evSpotNotice
	evSpotDeadline
	evLinkDegrade
	evLinkRestore
	// Requests to a running Service. A submit is an arrival and an
	// injected failure a failure; these two have no scenario counterpart.
	evScale
	evCancel
	// evOutcome is the data plane reporting on one command: never pushed
	// on the heap; the wall driver steps it as it arrives (driver.go).
	evOutcome
)

type event struct {
	time float64
	seq  int
	kind evKind
	job  string
	dev  cluster.DeviceID
	ver  int // completion version; stale versions are skipped
	// worker/factor carry link-degradation payloads; factor doubles as
	// the reclamation window (minutes) on spot-notice events.
	worker int
	factor float64
	gpus   int      // scale target
	out    *outcome // evOutcome
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// --- simulation state ---

type jobState int

const (
	jobQueued jobState = iota
	jobRunning
	jobDone
	jobRejected
	jobLost
	// jobCanceled is reachable only through the service control plane
	// (Service.Cancel); Run never produces it.
	jobCanceled
)

func (st jobState) String() string {
	return [...]string{"queued", "running", "completed", "rejected", "lost", "canceled"}[st]
}

type simJob struct {
	// spec.Model is dropped once the job is terminal; modelName is what
	// status snapshots and the run's Result report.
	spec      JobSpec
	modelName string
	idx       int // submission order

	// The placement the loop has decided; the runtime behind the executor
	// catches up when the job's chain executes.
	alloc cluster.Allocation
	cfg   parallel.Config
	// decided is the PTC the job will hold once the work already queued
	// on its chain has committed — the one fact planning a change needs of
	// the one before it, kept here so that no plan waits for bytes (doc.go
	// says when it is set and the one case in which it is wrong).
	decided *core.PTC

	state       jobState
	admitMin    float64
	doneMin     float64
	complAt     float64
	ver         int
	resizes     int
	reconfigSec float64
	movedBytes  int64

	// Graceful-degradation bookkeeping. admitted marks that the job has
	// been placed once, so the data plane holds state for it (a
	// re-admission must restore from checkpoint, not deploy fresh);
	// servedMin accumulates service time across requeues so a resumed job
	// only runs its remaining duration.
	admitted     bool
	requeues     int
	servedMin    float64
	lastStartMin float64

	// What outcomes have told the loop. deployed: the deploy — after a
	// re-admission, the restore — has landed on the stores of the lease;
	// cleared by a requeue. verified: the completion-time verify matched
	// the job's reassembled state against its initial tensors bit for
	// bit. inflight counts the job's changes whose outcome is yet to come.
	deployed bool
	verified bool
	inflight int
}

// releaseTerminal lets go of a job that just became lost, canceled or
// rejected: the decision plane's hold on the model here, the data
// plane's state by a release command behind whatever is still queued on
// the job's chain. A completed job's verify command does the same.
func (s *sim) releaseTerminal(j *simJob) {
	s.releaseModel(j)
	_ = s.exec.do(command{kind: cmdRelease, job: j.spec.Name}) // a release cannot fail
}

// releaseModel drops a terminal job's model and decided PTC from the
// decision plane, and with the last job holding that model the
// perfmodel cache's entries for it: they are keyed by the pointer, so
// they would keep the model of every job a service ever ran.
func (s *sim) releaseModel(j *simJob) {
	m := j.spec.Model
	j.spec.Model, j.decided = nil, nil
	if s.modelJobs[m]--; s.modelJobs[m] == 0 {
		delete(s.modelJobs, m)
		s.cache.DropModel(m)
	}
}

// pendingChange is one decided allocation change whose commit is queued
// on the job's chain. book books it — fills the timeline entry's price
// and schedules the delayed completion — with its outcome when that has
// been attached and for a single attempt when it has not.
type pendingChange struct {
	j     *simJob
	seq   int // reserved event sequence number for the completion push
	ver   int
	tlIdx int // timeline placeholder index
	ch    *job.Change
	// spanID/tMin are the change's trace root, allocated at decision
	// time so the span sequence is pure decision-plane state.
	spanID uint64
	tMin   float64
	// out is the commit's outcome once it has been delivered: attempt
	// count for downtime accounting, or an abort to turn into a requeue.
	out *outcome
}

type sim struct {
	topo   *cluster.Topology
	opts   Options
	policy Policy
	ledger *Ledger
	cache  *perfmodel.Cache
	exec   executor

	jobs  map[string]*simJob
	order []string // submission order
	queue []string // admission queue, arrival order
	// modelJobs counts the non-terminal jobs holding each model, so the
	// last one to finish takes the model's perfmodel entries with it.
	modelJobs map[*model.Model]int

	evq eventHeap
	seq int
	now float64

	// pending holds the changes decided since the last booking, inflight
	// counts those — booked or not — whose outcome has yet to arrive.
	pending  []*pendingChange
	inflight int
	// defragDue says a completion has freed devices: the step's second
	// phase, defrag, runs once its first phase has been booked.
	defragDue bool

	timeline     []TimelineEvent
	plans        int
	checks       int
	preemptions  int
	reconfigSec  float64
	utilIntegral float64 // leased device-minutes

	quarantined map[cluster.DeviceID]bool
	retries     int
	requeues    int
	retryBytes  int64
	recoverySec float64

	// tr/reg are Options.Obs and its registry (both nil when off).
	tr  *obs.Tracer
	reg *obs.Registry

	// onEvent, when non-nil, observes every timeline entry as it is
	// recorded (service event streaming). Placeholder entries for
	// in-flight changes are published before their price fields are
	// finalized; the stored timeline is patched in place afterwards.
	onEvent func(TimelineEvent)
}

// schedule registers a scenario's jobs and puts its script — arrivals,
// failures and the chaos plan's device and link events — on the heap.
func (s *sim) schedule(specs []JobSpec, failures []FailureSpec) error {
	for i := range specs {
		j, err := s.addJob(specs[i])
		if err != nil {
			return err
		}
		s.push(event{time: j.spec.ArrivalMin, kind: evArrival, job: j.spec.Name})
	}
	for _, f := range failures {
		if int(f.Device) < 0 || int(f.Device) >= s.topo.NumDevices() {
			return fmt.Errorf("coordinator: failure of unknown device %d", f.Device)
		}
		s.push(event{time: f.TimeMin, kind: evFailure, dev: f.Device})
	}
	plan := s.opts.Chaos
	if plan == nil {
		return nil
	}
	if err := plan.Validate(s.topo.NumDevices(), s.topo.NumWorkers()); err != nil {
		return err
	}
	for _, f := range plan.Flaps {
		for c := 0; c < max(f.Cycles, 1); c++ {
			at := f.FailMin + float64(c)*f.PeriodMin
			s.push(event{time: at, kind: evFailure, dev: f.Device})
			s.push(event{time: at + f.DownMin, kind: evDevRecover, dev: f.Device})
		}
	}
	for _, rc := range plan.Reclaims {
		s.push(event{time: rc.NoticeMin, kind: evSpotNotice, dev: rc.Device, factor: rc.WindowMin})
		s.push(event{time: rc.NoticeMin + rc.WindowMin, kind: evSpotDeadline, dev: rc.Device})
	}
	for _, ld := range plan.LinkDegrades {
		s.push(event{time: ld.StartMin, kind: evLinkDegrade, worker: ld.Worker, factor: ld.Factor})
		s.push(event{time: ld.StartMin + ld.DurationMin, kind: evLinkRestore, worker: ld.Worker})
	}
	return nil
}

// awaits reports whether e is a completion that must not be decided
// yet: a change of its job is still in flight and, this run having a
// retry budget or a chaos plan, may yet abort — after which the job is
// requeued and e is stale; deciding e first would verify a runtime that
// never got where the loop thinks it is. Every driver that does not
// deliver outcomes before it steps the heap must ask. Holding e reorders
// nothing: it stays at the head of the heap and no other scripted event is
// decided meanwhile (a Service's requests still are).
func (s *sim) awaits(e event) bool {
	return e.kind == evComplete && s.jobs[e.job].inflight > 0 &&
		(s.opts.Chaos != nil || s.opts.Recovery.MaxAttempts > 1)
}

// pop takes the next event off the heap, skipping completions that a
// resize, a failure, a requeue or a cancel has superseded.
func (s *sim) pop() (event, bool) {
	for s.evq.Len() > 0 {
		e := heap.Pop(&s.evq).(event)
		if e.kind == evComplete {
			if j := s.jobs[e.job]; j.state != jobRunning || j.ver != e.ver {
				continue
			}
		}
		return e, true
	}
	return event{}, false
}

// pushAt puts e on the heap under the sequence number it carries: a
// completion whose seq was reserved when its change was decided, or an
// event pop returned before its time had come.
func (s *sim) pushAt(e event) { heap.Push(&s.evq, e) }

// step is the decision: the core's one transition, shared by every
// driver. Every input — a scripted event off the heap, a request to the
// Service, an outcome from the data plane — is an event and goes through
// here. What it decides is booked by book, and a completion's defrag is a
// second phase after that booking; the driver says when.
func (s *sim) step(e event) error {
	s.advance(e.time)
	if s.tr.Enabled() {
		s.traceDecision(e)
		s.reg.Add("coord.events", 1)
	}
	return s.dispatch(e)
}

// book books the changes decided since the last booking, in decision
// order: it charges each job's downtime, schedules the delayed completion
// under the seq reserved at decision time, and fills the timeline
// placeholders. A change whose outcome has been attached is booked with
// it; one whose outcome is still to come is charged a single attempt, and
// its outcome, stepped when it arrives, settles the rest.
//
// An attached outcome may be an abort: its chain rolled the runtime back
// to the last bit-verified checkpoint, the job is requeued (or lost), and
// admission reruns, which may re-admit it from the checkpoint as a fresh
// pending restore for the next booking.
func (s *sim) book() error {
	batch := s.pending
	s.pending = nil
	degraded := false
	for _, p := range batch {
		switch {
		case p.j.state != jobRunning:
			s.traceSuperseded(p) // a requeue earlier in the batch
		case p.out == nil:
			// The commit is still in flight: charge the planned cost now. A
			// late abort is staled by the requeue's version bump.
			s.charge(p, nil)
		case p.out.aborted:
			degraded = true
			s.degrade(p)
		default:
			s.converge(p)
			s.charge(p, p.out)
		}
	}
	if !degraded {
		return nil
	}
	// Freed capacity (and the requeued jobs themselves) go back through
	// admission immediately.
	return s.reschedule()
}

// rejectQueued ends a script: anything still queued could never be placed
// on this cluster. Jobs parked by graceful degradation end explicitly
// requeued — never silently lost.
func (s *sim) rejectQueued() {
	for _, name := range s.queue {
		j := s.jobs[name]
		j.state = jobRejected
		note := "never admitted: insufficient capacity"
		if j.requeues > 0 {
			note = fmt.Sprintf("requeued %d times after aborted reconfigurations; never re-admitted", j.requeues)
		}
		s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvReject, Note: note})
	}
}

// addJob registers one job with the sim: validates and normalizes the
// spec and appends it to the submission order. The caller schedules —
// or, on the service path, immediately steps — the arrival event. The
// job's runtime and initial tensors are built at admission, so queued
// and rejected jobs cost neither stores nor state memory.
func (s *sim) addJob(spec JobSpec) (*simJob, error) {
	if err := normalizeSpec(&spec); err != nil {
		return nil, err
	}
	if _, dup := s.jobs[spec.Name]; dup {
		return nil, fmt.Errorf("coordinator: duplicate job name %q", spec.Name)
	}
	j := &simJob{spec: spec, modelName: spec.Model.Name, idx: len(s.order)}
	s.modelJobs[spec.Model]++
	s.jobs[spec.Name] = j
	s.order = append(s.order, spec.Name)
	return j, nil
}

func normalizeSpec(spec *JobSpec) error {
	if spec.Name == "" || spec.Model == nil {
		return fmt.Errorf("coordinator: job spec needs Name and Model")
	}
	if spec.GPUs < 1 || spec.DurationMin <= 0 || spec.ArrivalMin < 0 {
		return fmt.Errorf("coordinator: job %s: bad GPUs/duration/arrival", spec.Name)
	}
	if spec.MinGPUs == 0 {
		spec.MinGPUs = spec.GPUs
	}
	if spec.MaxGPUs == 0 {
		spec.MaxGPUs = spec.GPUs
	}
	if spec.MinGPUs < 1 || spec.MinGPUs > spec.GPUs || spec.MaxGPUs < spec.GPUs {
		return fmt.Errorf("coordinator: job %s: bounds [%d, %d] around %d",
			spec.Name, spec.MinGPUs, spec.MaxGPUs, spec.GPUs)
	}
	return nil
}

func (s *sim) push(e event) {
	e.seq = s.reserveSeq()
	heap.Push(&s.evq, e)
}

// reserveSeq hands out the next event sequence number. Changes whose
// completion push is deferred until book books them reserve their seq
// at decision time, so the heap order is independent of when the push
// actually happens.
func (s *sim) reserveSeq() int {
	n := s.seq
	s.seq++
	return n
}

// advance moves the clock to t, integrating leased device-time for the
// utilization metric.
func (s *sim) advance(t float64) {
	if t < s.now {
		t = s.now // reconfiguration downtime may push completions past later events
	}
	s.utilIntegral += float64(s.ledger.LeasedCount()) * (t - s.now)
	s.now = t
}

func (s *sim) record(e TimelineEvent) {
	s.timeline = append(s.timeline, e)
	if s.onEvent != nil {
		s.onEvent(e)
	}
}

// running returns the running jobs in submission order.
func (s *sim) running() []*simJob {
	var out []*simJob
	for _, name := range s.order {
		if j := s.jobs[name]; j.state == jobRunning {
			out = append(out, j)
		}
	}
	return out
}
