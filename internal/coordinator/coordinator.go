// Package coordinator is a multi-job elastic cluster control plane for
// Tenplex jobs sharing one cluster.Topology — the cluster-side half of
// the paper's scenario, where a scheduler reallocates GPUs among many
// competing DL jobs and each job reconfigures its PTC in response
// (§2, §5.4).
//
// The coordinator keeps a device Ledger that leases and reclaims GPUs
// with no double-allocation, admits jobs from a Philly-derived arrival
// trace through a pluggable Policy (FIFO+surplus, DRF-style fairness,
// or priority classes with gang admission), picks each job's (T, P, D)
// for its current lease with a memoized perfmodel search, and prices
// every reconfiguration with netsim before committing it. The event
// loop handles job arrival and completion, elastic scale-up/down
// arbitration between jobs, defragmenting redeployments onto fewer
// workers, and fail-stop device failures. Every allocation change runs
// through the affected job's real state-management path: core plan
// generation and the distributed State Transformer over per-device
// Tensor Stores.
//
// The runtime is split into a single-threaded decision plane and a
// parallel execution plane: the event loop owns the ledger, the event
// heap and every scheduling choice, while independent jobs'
// reconfiguration work — plan generation, transform.Apply,
// checkpointing and state verification — fans out over a bounded
// worker pool as per-job task chains (see exec.go). Two execution
// modes share the same API: deterministic simulated time (ModeSim, the
// default — traces are reproducible bit for bit and, under the FIFO
// policy, byte-identical to the original serial loop), and wall-clock
// mode (ModeWall), which paces the event heap on the real clock so
// reconfigurations of different jobs genuinely overlap in time.
package coordinator

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tenplex/internal/chaos"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/obs"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
	"tenplex/internal/sched"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// JobSpec describes one job submitted to the coordinator.
type JobSpec struct {
	// Name identifies the job; must be unique within a run.
	Name string
	// Model is the job's state catalog. Reduced-scale catalogs (e.g.
	// model.GPTCustom) keep simulations cheap while still moving real
	// bytes through the Tensor Stores.
	Model *model.Model
	// ArrivalMin is the submission time in minutes.
	ArrivalMin float64
	// DurationMin is the service time once admitted.
	DurationMin float64
	// GPUs is the requested lease size; MinGPUs/MaxGPUs bound elastic
	// resizing (zero values default to GPUs, i.e. a rigid job).
	GPUs             int
	MinGPUs, MaxGPUs int
	// Priority is the job's class for priority-aware policies (higher
	// runs first); FIFO and DRF ignore it.
	Priority int
	// Seed drives the job's deterministic initial tensors.
	Seed int64
}

// SpecsFromArrivals converts a sched multi-job arrival trace into
// coordinator job specs, assigning each job the model pick(i) returns.
func SpecsFromArrivals(arrivals []sched.JobArrival, pick func(i int) *model.Model) []JobSpec {
	out := make([]JobSpec, 0, len(arrivals))
	for i, a := range arrivals {
		out = append(out, JobSpec{
			Name:        a.Name,
			Model:       pick(i),
			ArrivalMin:  a.ArrivalMin,
			DurationMin: a.DurationMin,
			GPUs:        a.GPUs,
			MinGPUs:     a.MinGPUs,
			MaxGPUs:     a.MaxGPUs,
			Seed:        int64(i)*1009 + 1,
		})
	}
	return out
}

// FailureSpec injects a fail-stop device failure at a point in time.
type FailureSpec struct {
	TimeMin float64
	Device  cluster.DeviceID
}

// ExecMode selects how the runtime advances time.
type ExecMode int

const (
	// ModeSim is deterministic simulated time: the event heap drives
	// the clock and the run is reproducible bit for bit.
	ModeSim ExecMode = iota
	// ModeWall paces the event heap on the real clock (Options.WallScale
	// real time per simulated minute), so independent jobs'
	// reconfigurations genuinely overlap. Decisions — and therefore the
	// timeline — are identical to ModeSim; only real execution differs.
	ModeWall
)

// Options tunes a coordinator run.
type Options struct {
	// Perf is the cost model for placement decisions; the zero value
	// uses a reduced-scale default (no memory feasibility check, batch
	// 64) suited to the materialized mini models simulations run.
	Perf perfmodel.Params
	// DefragMaxSec is the netsim-priced cost ceiling for voluntary
	// defragmenting redeployments: a compaction whose predicted
	// reconfiguration time exceeds it is not committed. Zero means the
	// default (30 s); negative disables defragmentation.
	DefragMaxSec float64
	// Policy decides admission order, preemption victims and expansion
	// order. nil means FIFO{} — the original behavior, with sim traces
	// byte-identical to the pre-Policy coordinator.
	Policy Policy
	// Placement enables allocation-aware placement scoring: instead of
	// the single count-based compact pick, the coordinator enumerates
	// up to PlacementCandidates lease-feasible device sets per
	// admission and expansion (Ledger.CandidateSets), scores each
	// concrete set with perfmodel.ScorePlacement (TP-group locality,
	// worst-link bandwidth, netsim-priced migration of the job's state
	// from its current allocation), and lets the Policy rank them;
	// preemption victims are scored by the netsim cost of evicting
	// them, not just largest surplus. Disabled (the default), sim
	// traces are byte-identical to the count-based coordinator.
	Placement bool
	// PlacementCandidates bounds the candidate sets scored per
	// decision; 0 means the default (4).
	PlacementCandidates int
	// Mode selects deterministic simulated time (default) or wall-clock
	// pacing.
	Mode ExecMode
	// Workers bounds the worker pool executing per-job reconfiguration
	// work. 0 means GOMAXPROCS; 1 means the fully serialized
	// single-threaded event loop (every task runs inline at its
	// decision point, the original runtime).
	Workers int
	// WallScale is the real duration of one simulated minute in
	// ModeWall; zero means the default 250µs.
	WallScale time.Duration
	// Chaos injects deterministic hostility (see internal/chaos):
	// per-operation store faults during transform attempts, flapping
	// devices, spot reclamations and link degradations. nil disables
	// injection entirely and leaves traces byte-identical to a run
	// without the field.
	Chaos *chaos.Plan
	// Recovery tunes transactional reconfiguration and graceful
	// degradation; the zero value is the legacy fail-fast coordinator.
	Recovery RecoveryPolicy
	// RecordDecisions collects the wall-clock latency of every
	// decision-plane event handler into Result.DecisionNs — the metric
	// the dcscale experiments gate on. Only the handler itself is
	// timed: plan/transform execution (flush) and invariant audits are
	// verification machinery of the simulator, not work a production
	// control plane would do per decision.
	RecordDecisions bool
	// AuditStride runs the expensive per-event runtime audit (PTC
	// validation for every running job) on every AuditStride-th event
	// only; 0 or 1 audits every event (the default, unchanged
	// behavior). The terminal auditAll sweep always runs, so a
	// divergence still fails the run — a larger stride only delays
	// where it surfaces. Datacenter-scale simulations (200 jobs ×
	// thousands of events) set this to keep O(jobs·state) validation
	// from dominating the run.
	AuditStride int
	// Stores, when non-nil, supplies each job runtime's per-device
	// Tensor Store instead of a fresh in-memory one. The coordd daemon
	// points it at real tenplex-store servers (one store.Client per
	// device), so every plan/transform/verify moves bytes over the
	// wire. Checkpoint blob storage stays in-process either way: it is
	// the durability anchor rollback and restore depend on. nil (the
	// default) keeps the original in-memory stores and leaves sim
	// traces byte-identical.
	Stores func(job string, dev cluster.DeviceID) store.Access
	// Metrics, when non-nil and Obs is nil, mirrors the coordinator's
	// accounting into this registry without recording any trace — what
	// a long-running service wants, since spans accumulate without
	// bound. Ignored when Obs is set (the tracer's registry wins).
	Metrics *obs.Registry
	// Obs, when non-nil, records an end-to-end trace of the run —
	// decision-plane events, per-change execution phases and (at
	// LevelDatapath) per-assignment and per-store-operation detail —
	// plus a shared metrics registry mirroring the coordinator's
	// accounting. nil disables observability entirely: the hot paths
	// see only nil-receiver no-ops and the run's behavior, timeline and
	// Result are byte-identical to a run without the field.
	Obs *obs.Tracer
}

// RecoveryPolicy governs how the coordinator survives failing
// reconfigurations. The zero value reproduces the legacy coordinator:
// one transform attempt, any commit error aborts the whole run.
type RecoveryPolicy struct {
	// MaxAttempts bounds transform attempts per committed change; 0 or
	// 1 means a single attempt. With chaos enabled even a single failed
	// attempt degrades gracefully (rollback to checkpoint + requeue)
	// instead of erroring the run.
	MaxAttempts int
	// BackoffSec is the simulated-time wait before the second attempt,
	// doubling each retry and capped at MaxBackoffSec (uncapped when
	// MaxBackoffSec is 0). Backoff is charged as job downtime, never
	// slept.
	BackoffSec    float64
	MaxBackoffSec float64
	// MaxRequeues bounds how many aborted reconfigurations may send one
	// job back to the admission queue before it is declared lost; 0
	// means unlimited.
	MaxRequeues int
	// SuspicionThreshold is the failure detector: a recovering device
	// that has failed at least this many times stays quarantined
	// instead of being re-leased. 0 disables quarantine.
	SuspicionThreshold int
}

// backoffSec is the simulated backoff after the n-th failed attempt
// (n >= 1).
func (p RecoveryPolicy) backoffSec(n int) float64 {
	if p.BackoffSec <= 0 {
		return 0
	}
	d := p.BackoffSec * math.Pow(2, float64(n-1))
	if p.MaxBackoffSec > 0 && d > p.MaxBackoffSec {
		d = p.MaxBackoffSec
	}
	return d
}

// totalBackoffSec sums the waits a change that ran attempts transform
// attempts sat through.
func (p RecoveryPolicy) totalBackoffSec(attempts int) float64 {
	var sum float64
	for n := 1; n < attempts; n++ {
		sum += p.backoffSec(n)
	}
	return sum
}

// DefaultPerf returns the placement cost model used when Options.Perf
// is zero.
func DefaultPerf() perfmodel.Params {
	p := perfmodel.DefaultParams()
	p.GlobalBatch = 64
	p.DeviceMemGB = 0 // reduced-scale catalogs: skip the memory check
	return p
}

// Timeline event kinds.
const (
	EvSubmit   = "submit"
	EvAdmit    = "admit"
	EvReject   = "reject"
	EvScaleOut = "scale-out"
	EvScaleIn  = "scale-in"
	EvRedeploy = "redeploy"
	EvFailure  = "device-failure"
	EvRecover  = "recover"
	EvLost     = "lost"
	EvComplete = "complete"

	// Hostile-cluster events (chaos plans and graceful degradation).
	EvDevRecover  = "device-recover"
	EvQuarantine  = "quarantine"
	EvSpotNotice  = "spot-notice"
	EvLinkDegrade = "link-degrade"
	EvLinkRestore = "link-restore"
	EvRequeue     = "requeue"

	// Service events (long-running coordd control plane only; never
	// emitted by Run).
	EvCancel = "cancel"
)

// TimelineEvent is one entry of the per-job cluster timeline. The JSON
// encoding is stable: field names are fixed tags and Kind is always one
// of the Ev* constants, so timelines can be exported, diffed and read
// back across versions.
type TimelineEvent struct {
	TimeMin float64 `json:"time_min"`
	Job     string  `json:"job,omitempty"`
	Kind    string  `json:"kind"`
	// GPUs is the job's lease size after the event.
	GPUs int `json:"gpus,omitempty"`
	// Config is the job's (T, P, D) after the event, when placed.
	Config string `json:"config,omitempty"`
	// SimSec is the netsim-priced reconfiguration time charged as
	// downtime for this event.
	SimSec float64 `json:"sim_sec,omitempty"`
	// MovedBytes crossed a device boundary during the change.
	MovedBytes int64  `json:"moved_bytes,omitempty"`
	Note       string `json:"note,omitempty"`
}

func (e TimelineEvent) String() string {
	s := fmt.Sprintf("t=%7.1f min  %-8s %-14s %2d GPUs", e.TimeMin, e.Job, e.Kind, e.GPUs)
	if e.Config != "" {
		s += " as " + e.Config
	}
	if e.SimSec > 0 {
		s += fmt.Sprintf(", %.3fs reconfig", e.SimSec)
	}
	if e.Note != "" {
		s += "  (" + e.Note + ")"
	}
	return s
}

// JobSummary aggregates one job's run.
type JobSummary struct {
	Name        string
	Model       string
	GPUs        int // requested
	ArrivalMin  float64
	AdmitMin    float64
	DoneMin     float64
	Resizes     int
	ReconfigSec float64
	MovedBytes  int64
	Completed   bool
}

// Result is the outcome of a coordinator simulation.
type Result struct {
	Timeline []TimelineEvent
	Jobs     []JobSummary
	// Policy is the name of the scheduling policy that ran.
	Policy string
	// MakespanMin is the time of the last event.
	MakespanMin float64
	// ReconfigSecTotal is the aggregate netsim-priced reconfiguration
	// time across all jobs.
	ReconfigSecTotal float64
	// MovedBytesTotal is the aggregate reconfiguration payload that
	// crossed a device boundary across all jobs — the quantity
	// placement-aware scheduling exists to shrink.
	MovedBytesTotal int64
	// MeanUtilization is leased device-time over total device-time.
	MeanUtilization float64
	// Preemptions counts forced scale-ins of running jobs on behalf of
	// queued ones.
	Preemptions int
	// PlansValidated counts reconfiguration plans generated and
	// validated during the run (every resize, redeploy and recovery).
	PlansValidated int
	// InvariantChecks counts full ledger+PTC invariant sweeps (one per
	// processed event).
	InvariantChecks int
	// Retries counts transform attempts beyond each change's first —
	// work the retry budget bought back from injected faults.
	Retries int
	// Requeues counts aborted reconfigurations that sent their job back
	// to the admission queue (graceful degradation instead of run
	// failure).
	Requeues int
	// QuarantinedDevices counts devices the suspicion-count failure
	// detector refused to re-admit after a recovery.
	QuarantinedDevices int
	// RetryBytes is reconfiguration payload re-moved by attempts beyond
	// the first — the waste the retry policy pays for survival.
	RetryBytes int64
	// RecoverySec is downtime charged beyond first-attempt cost: repeat
	// transform work, backoff waits and aborted-change work.
	RecoverySec float64
	// WallNs is the real time the run took — the cost of executing the
	// control plane plus (in ModeWall) the paced schedule.
	WallNs int64
	// DecisionNs holds the wall-clock nanoseconds each decision-plane
	// event handler took, in processing order; populated only when
	// Options.RecordDecisions is set.
	DecisionNs []int64
}

// Render formats the timeline and summary as text.
func (r Result) Render() string {
	s := ""
	for _, e := range r.Timeline {
		s += e.String() + "\n"
	}
	s += fmt.Sprintf("makespan %.1f min, mean utilization %.2f, aggregate reconfig %.3f s, %d plans validated\n",
		r.MakespanMin, r.MeanUtilization, r.ReconfigSecTotal, r.PlansValidated)
	return s
}

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
	switch st {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "completed"
	case jobRejected:
		return "rejected"
	case jobLost:
		return "lost"
	case jobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("jobState(%d)", int(st))
}

type simJob struct {
	// spec.Model is dropped once the job is terminal; modelName is what
	// status snapshots and the run's Result report.
	spec      JobSpec
	modelName string
	idx       int // submission order
	rt        *jobRuntime
	// init holds the job's deterministic initial tensors. It is
	// written by the deploy task, read by the verify task and dropped
	// once the job is terminal (releaseState) — all on the job's chain,
	// never by the event loop.
	init map[core.TensorID]*tensor.Tensor

	// Decision-plane mirrors of the runtime's placement. The event
	// loop reads and writes these at decision time; rt.alloc/rt.cfg
	// catch up when the job's chain executes.
	alloc cluster.Allocation
	cfg   parallel.Config
	// decided is the PTC the job will hold once the work already queued
	// on its chain has committed — ModeWall's copy of the one fact the
	// event loop used to drain the chain for, so that planning a change
	// never waits for the bytes of the one before it. Built at first
	// admission (the deploy task places the job under this very value),
	// advanced to the target of every decided change, set to the restore
	// target at re-admission, and dropped when the job turns terminal.
	// It can be ahead of the truth in one case only: an earlier change
	// aborted after a later one was planned; that commit re-plans on the
	// chain (jobRuntime.rebase) and its outcome brings decided back
	// (converge). nil in ModeSim, which plans on the chain from rt.ptc.
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
	// been placed once, so its runtime holds state (a re-admission must
	// restore from checkpoint, not deploy fresh); servedMin accumulates
	// service time across requeues so a resumed job only runs its
	// remaining duration.
	admitted     bool
	requeues     int
	servedMin    float64
	lastStartMin float64

	// deployed is set by the deploy task — or, after a re-admission, the
	// restore task — once the job's state is on the stores of its lease,
	// and cleared by a requeue. verified is set by the completion-time
	// verify task when the job's reassembled state matched its initial
	// tensors bit for bit. Both are written on the job's chain and read
	// by service status snapshots — hence atomic.
	deployed atomic.Bool
	verified atomic.Bool
}

// releaseState drops what only a live job needs — its golden tensors,
// its in-process checkpoints and stores (several times the job's state
// size), its PTC with the compiled index hanging off it, and its model —
// so a long-running service does not grow with every job it has ever
// finished. What a status snapshot or the run's Result reports of a
// terminal job lives in simJob's plain fields. It runs on the job's
// chain, behind whatever work is still queued there.
func (j *simJob) releaseState() {
	j.init = nil
	j.rt.model, j.rt.ptc, j.rt.stores = nil, nil, nil
	j.rt.storage = store.Local{FS: store.NewMemFS()}
}

// releaseTerminal lets go of a job that just became lost, canceled or
// rejected: the decision plane's hold on the model here, the rest by
// releaseState on the job's chain. A completed job does the same around
// its verify task instead.
func (s *sim) releaseTerminal(j *simJob) {
	s.releaseModel(j)
	_ = s.submit(j.spec.Name, func() error { j.releaseState(); return nil }) // the task cannot fail
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

// pendingChange is one decided allocation change whose plan+transform
// is in flight on the job's chain. The event loop finalizes it — fills
// the timeline entry's price and schedules the delayed completion —
// once the plan is available.
type pendingChange struct {
	j     *simJob
	cfg   parallel.Config
	alloc cluster.Allocation
	seq   int // reserved event sequence number for the completion push
	ver   int
	tlIdx int // timeline placeholder index
	ch    *change
	// spanID/tMin are the change's trace root, allocated at decision
	// time so the span sequence is pure decision-plane state.
	spanID uint64
	tMin   float64
	// out is the transactional commit's outcome, stored by the job's
	// chain and read by the event loop (hence atomic): attempt count for
	// downtime accounting, or an abort flush turns into a requeue.
	out atomic.Pointer[commitOutcome]
}

type sim struct {
	topo   *cluster.Topology
	opts   Options
	policy Policy
	ledger *Ledger
	cache  *perfmodel.Cache
	pool   *pool // nil when Workers == 1: tasks run inline
	inj    *chaos.Injector

	jobs  map[string]*simJob
	order []string // submission order
	queue []string // admission queue, arrival order
	// modelJobs counts the non-terminal jobs holding each model, so the
	// last one to finish takes the model's perfmodel entries with it.
	modelJobs map[*model.Model]int

	evq eventHeap
	seq int
	now float64

	pending []*pendingChange
	// inflight holds wall-mode changes charged optimistically before
	// their transform finished; late aborts are resolved at later
	// flushes.
	inflight []*pendingChange

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

	decisionNs []int64 // per-event handler latency (RecordDecisions)
	eventIdx   int     // processed-event counter (AuditStride)

	// tr/reg are Options.Obs and its registry (both nil when off).
	tr  *obs.Tracer
	reg *obs.Registry

	// onEvent, when non-nil, observes every timeline entry as it is
	// recorded (service event streaming). Placeholder entries for
	// in-flight changes are published before their price fields are
	// finalized; the stored timeline is patched in place afterwards.
	onEvent func(TimelineEvent)
}

// Run executes a coordinator run: the jobs arrive, compete for the
// topology's devices under the configured Policy, resize elastically,
// survive the injected failures, and complete. In ModeSim (default)
// the run is deterministic; in ModeWall the event heap is paced on the
// real clock and independent jobs' reconfigurations overlap. It
// returns the per-job timeline and aggregate metrics, or the first
// invariant or state-management error.
func Run(topo *cluster.Topology, specs []JobSpec, failures []FailureSpec, opts Options) (Result, error) {
	s, err := newSim(topo, opts)
	if err != nil {
		return Result{}, err
	}
	topo, opts = s.topo, s.opts
	for i := range specs {
		j, err := s.addJob(specs[i])
		if err != nil {
			return Result{}, err
		}
		s.push(event{time: j.spec.ArrivalMin, kind: evArrival, job: j.spec.Name})
	}
	for _, f := range failures {
		if int(f.Device) < 0 || int(f.Device) >= topo.NumDevices() {
			return Result{}, fmt.Errorf("coordinator: failure of unknown device %d", f.Device)
		}
		s.push(event{time: f.TimeMin, kind: evFailure, dev: f.Device})
	}
	if opts.Chaos != nil {
		if err := opts.Chaos.Validate(topo.NumDevices(), topo.NumWorkers()); err != nil {
			return Result{}, err
		}
		s.inj = chaos.NewInjector(*opts.Chaos)
		for _, j := range s.jobs {
			j.rt.wrapStores(s.inj)
		}
		for _, f := range opts.Chaos.Flaps {
			cycles := f.Cycles
			if cycles < 1 {
				cycles = 1
			}
			for c := 0; c < cycles; c++ {
				at := f.FailMin + float64(c)*f.PeriodMin
				s.push(event{time: at, kind: evFailure, dev: f.Device})
				s.push(event{time: at + f.DownMin, kind: evDevRecover, dev: f.Device})
			}
		}
		for _, rc := range opts.Chaos.Reclaims {
			s.push(event{time: rc.NoticeMin, kind: evSpotNotice, dev: rc.Device, factor: rc.WindowMin})
			s.push(event{time: rc.NoticeMin + rc.WindowMin, kind: evSpotDeadline, dev: rc.Device})
		}
		for _, ld := range opts.Chaos.LinkDegrades {
			s.push(event{time: ld.StartMin, kind: evLinkDegrade, worker: ld.Worker, factor: ld.Factor})
			s.push(event{time: ld.StartMin + ld.DurationMin, kind: evLinkRestore, worker: ld.Worker})
		}
	}
	if opts.Obs.Deep() {
		// Datapath tracing wraps outside any chaos wrapper, so injected
		// faults show up as the failed store operations they are.
		for _, j := range s.jobs {
			j.rt.observeStores()
		}
	}

	start := time.Now()
	for s.evq.Len() > 0 {
		e := heap.Pop(&s.evq).(event)
		if e.kind == evComplete {
			j := s.jobs[e.job]
			if j.state != jobRunning || j.ver != e.ver {
				continue // superseded by a resize or a failure
			}
		}
		if opts.Mode == ModeWall {
			// Pace the heap on the real clock: one simulated minute is
			// WallScale of real time. In-flight chains keep executing
			// while the loop waits — that overlap is the mode's point.
			due := start.Add(time.Duration(e.time * float64(opts.WallScale)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		s.advance(e.time)
		if s.tr.Enabled() {
			s.traceDecision(e)
			s.reg.Add("coord.events", 1)
		}
		s.eventIdx++
		var decideStart time.Time
		if opts.RecordDecisions {
			decideStart = time.Now()
		}
		err := s.dispatch(e)
		if opts.RecordDecisions {
			s.decisionNs = append(s.decisionNs, time.Since(decideStart).Nanoseconds())
		}
		if err == nil {
			err = s.flush()
		}
		if err == nil {
			err = s.checkInvariants()
		}
		if err != nil {
			if s.pool != nil {
				s.pool.drainAll() // quiesce chains before reporting
			}
			return s.result(start), err
		}
	}
	// Wall mode leaves verification (and possibly trailing commits) in
	// flight; join them before judging the run. Commits may have aborted
	// after their optimistic charge, and resolving those can spawn fresh
	// restore chains, so drain and flush until everything settles — no
	// job ends silently inconsistent.
	for {
		if s.pool != nil {
			if err := s.pool.drainAll(); err != nil {
				return s.result(start), err
			}
		}
		if err := s.flush(); err != nil {
			return s.result(start), err
		}
		if len(s.inflight) == 0 && len(s.pending) == 0 {
			break
		}
	}
	if err := s.auditAll(); err != nil {
		return s.result(start), err
	}
	// Anything still queued could never be placed on this cluster. Jobs
	// parked by graceful degradation end explicitly requeued — never
	// silently lost.
	for _, name := range s.queue {
		j := s.jobs[name]
		j.state = jobRejected
		note := "never admitted: insufficient capacity"
		if j.requeues > 0 {
			note = fmt.Sprintf("requeued %d times after aborted reconfigurations; never re-admitted", j.requeues)
		}
		s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvReject, Note: note})
	}
	return s.result(start), nil
}

// newSim validates the topology, applies option defaults and builds
// the decision-plane state shared by Run and the long-running Service.
// The topology is health-isolated behind a clone so repeated runs over
// one caller-owned topology stay independent and deterministic.
func newSim(topo *cluster.Topology, opts Options) (*sim, error) {
	if topo == nil || topo.NumDevices() == 0 {
		return nil, fmt.Errorf("coordinator: run needs a topology")
	}
	// Fail-stop handling marks devices in the topology (so placement
	// scoring and memoization generations see the post-failure
	// cluster).
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
	if opts.PlacementCandidates == 0 {
		opts.PlacementCandidates = 4
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
	if opts.Workers > 1 {
		s.pool = newPool(opts.Workers)
	}
	return s, nil
}

// addJob registers one job with the sim: validates and normalizes the
// spec, builds its runtime (device stores come from opts.Stores when
// set) and appends it to the submission order. The caller schedules —
// or, on the service path, immediately fires — the arrival event. The
// initial tensors are materialized lazily at admission, so queued and
// rejected jobs cost no state memory.
func (s *sim) addJob(spec JobSpec) (*simJob, error) {
	if err := normalizeSpec(&spec); err != nil {
		return nil, err
	}
	if _, dup := s.jobs[spec.Name]; dup {
		return nil, fmt.Errorf("coordinator: duplicate job name %q", spec.Name)
	}
	j := &simJob{
		spec:      spec,
		modelName: spec.Model.Name,
		idx:       len(s.order),
		rt:        newJobRuntime(spec.Name, spec.Model, s.topo, s.opts.Stores),
	}
	j.rt.metrics = s.reg
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
// completion push is deferred until their plan is priced reserve their
// seq at decision time, so the heap order is independent of when the
// push actually happens.
func (s *sim) reserveSeq() int {
	n := s.seq
	s.seq++
	return n
}

func (s *sim) pushReserved(e event, seq int) {
	e.seq = seq
	heap.Push(&s.evq, e)
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

// --- task plumbing ---

// submit schedules fn on job's task chain; with Workers == 1 it runs
// inline at the decision point (the serialized runtime) and returns
// fn's error directly.
func (s *sim) submit(job string, fn func() error) error {
	if s.pool == nil {
		return fn()
	}
	s.pool.submit(job, fn)
	return nil
}

// drainJob waits for job's chain to go idle, so the event loop may
// read or plan against the job's runtime state. Only ModeSim's defrag
// does: ModeWall plans against simJob.decided and never waits on a
// chain.
func (s *sim) drainJob(job string) error {
	if s.pool == nil {
		return nil
	}
	s.pool.drain(job)
	return s.pool.firstErr()
}

// flush finalizes the event's decided changes: it waits for their
// plans (in ModeSim the whole batch executes here, fanned out across
// jobs; in ModeWall plans were priced at decision time against the
// decided PTC, only transforms remain in flight and nothing is waited
// for), then — in decision order — charges
// each job's downtime, schedules the delayed completion under the seq
// reserved at decision time, and fills the timeline placeholders.
//
// With recovery enabled a change may come back aborted: its chain
// already rolled the runtime back to the last bit-verified checkpoint,
// and flush degrades gracefully — the job is requeued (or lost), then
// admission reruns, which may re-admit it from the checkpoint as a
// fresh pending restore. The loop drains until no decided work
// remains; with chaos off it makes exactly one charging pass, byte-
// identical to the legacy flush.
func (s *sim) flush() error {
	for {
		if s.pool != nil {
			// ModeSim joins every chain here. ModeWall waits for none; it
			// only asks whether one has failed, which is where a chain's
			// error reaches a loop that no longer drains before it plans.
			err := s.pool.firstErr()
			if s.opts.Mode == ModeSim {
				err = s.pool.drainAll()
			}
			if err != nil {
				return err
			}
		}
		if err := s.resolveInflight(); err != nil {
			return err
		}
		if len(s.pending) == 0 {
			return nil
		}
		batch := s.pending
		s.pending = nil
		degraded := false
		for _, p := range batch {
			ch := p.ch
			if ch == nil {
				if s.pool != nil {
					if err := s.pool.firstErr(); err != nil {
						return err
					}
				}
				return fmt.Errorf("coordinator: change for %s has no plan", p.j.spec.Name)
			}
			if p.j.state != jobRunning {
				s.traceSuperseded(p)
				continue // superseded by a requeue earlier in the batch
			}
			out := p.out.Load()
			if out == nil {
				// ModeWall: the transform is still in flight. Charge the
				// planned cost now; a late abort is resolved at the next
				// flush, staled by the requeue's version bump.
				s.inflight = append(s.inflight, p)
				s.charge(p, ch, nil)
				continue
			}
			s.converge(p, out)
			if out.aborted {
				degraded = true
				s.degrade(p, ch, out)
				continue
			}
			s.charge(p, ch, out)
		}
		if degraded {
			// Freed capacity (and the requeued jobs themselves) go back
			// through admission immediately.
			if err := s.admitQueued(); err != nil {
				return err
			}
			if err := s.expandJobs(); err != nil {
				return err
			}
		}
	}
}

// charge books one committed change against its job: the netsim-priced
// transform once per attempt plus the policy's backoff waits. With a
// single attempt the arithmetic is exactly ch.simSec and the timeline
// note is untouched — the legacy path, byte for byte. out is nil only
// for a wall-mode optimistic charge (one attempt assumed; resolveInflight
// settles the rest later).
func (s *sim) charge(p *pendingChange, ch *change, out *commitOutcome) {
	j := p.j
	attempts := 1
	if out != nil {
		attempts = out.attempts
	}
	down := ch.simSec
	if attempts > 1 {
		down = float64(attempts)*ch.simSec + s.opts.Recovery.totalBackoffSec(attempts)
		s.retries += attempts - 1
		s.retryBytes += int64(attempts-1) * ch.stats.MovedBytes
		s.recoverySec += down - ch.simSec
		s.timeline[p.tlIdx].Note = appendNote(s.timeline[p.tlIdx].Note,
			fmt.Sprintf("%d attempts", attempts))
	}
	j.reconfigSec += down
	j.movedBytes += ch.stats.MovedBytes
	s.reconfigSec += down
	// Downtime delays the job's completion.
	j.complAt += down / 60
	s.pushReserved(event{time: j.complAt, kind: evComplete, job: j.spec.Name, ver: p.ver}, p.seq)
	s.timeline[p.tlIdx].SimSec = down
	s.timeline[p.tlIdx].MovedBytes = ch.stats.MovedBytes
	if s.reg != nil {
		// Mirrors of the accumulations above, written only here on the
		// event loop in decision order — the float gauge therefore sums
		// in exactly the order j.reconfigSec did, which is what lets
		// report.Reconcile demand bit-exact equality.
		name := j.spec.Name
		s.reg.AddFloat("job."+name+".reconfig_sec", down)
		s.reg.Add("job."+name+".moved_bytes", ch.stats.MovedBytes)
		s.reg.AddFloat("coord.reconfig_sec", down)
		s.reg.Add("coord.moved_bytes", ch.stats.MovedBytes)
		if attempts > 1 {
			s.reg.Add("job."+name+".retries", int64(attempts-1))
			s.reg.Add("coord.retries", int64(attempts-1))
			s.reg.Add("coord.retry_bytes", int64(attempts-1)*ch.stats.MovedBytes)
			s.reg.AddFloat("coord.recovery_sec", down-ch.simSec)
		}
	}
	s.traceChange(p, ch, attempts, down, out)
}

// degrade handles an aborted change: the chain rolled the runtime back
// to its last checkpoint, so the decision plane walks back too — the
// wasted attempts are charged to the recovery metrics (there is no
// completion to delay) and the job is requeued or, once its requeue
// budget is spent, declared lost.
func (s *sim) degrade(p *pendingChange, ch *change, out *commitOutcome) {
	j := p.j
	wasted := float64(out.attempts)*ch.simSec + s.opts.Recovery.totalBackoffSec(out.attempts)
	s.retries += out.attempts - 1
	s.retryBytes += int64(out.attempts-1) * ch.stats.MovedBytes
	s.recoverySec += wasted
	s.reconfigSec += wasted
	j.reconfigSec += wasted
	s.timeline[p.tlIdx].SimSec = wasted
	s.timeline[p.tlIdx].Note = appendNote(s.timeline[p.tlIdx].Note,
		fmt.Sprintf("aborted after %d attempts, rolled back to checkpoint", out.attempts))
	if s.reg != nil {
		name := j.spec.Name
		s.reg.AddFloat("job."+name+".reconfig_sec", wasted)
		s.reg.AddFloat("coord.reconfig_sec", wasted)
		s.reg.AddFloat("coord.recovery_sec", wasted)
		if out.attempts > 1 {
			s.reg.Add("job."+name+".retries", int64(out.attempts-1))
			s.reg.Add("coord.retries", int64(out.attempts-1))
			s.reg.Add("coord.retry_bytes", int64(out.attempts-1)*ch.stats.MovedBytes)
		}
	}
	s.traceChange(p, ch, out.attempts, wasted, out)
	s.requeueJob(j)
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
	j.deployed.Store(false)
	j.ver++
	j.requeues++
	s.requeues++
	s.reg.Add("coord.requeues", 1)
	if max := s.opts.Recovery.MaxRequeues; max > 0 && j.requeues > max {
		s.cache.DropJob(name)
		j.state = jobLost
		j.doneMin = s.now
		s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvLost,
			Note: fmt.Sprintf("requeue budget exhausted after %d aborted reconfigurations", j.requeues)})
		s.releaseTerminal(j)
		return
	}
	j.state = jobQueued
	s.queue = append(s.queue, name)
	s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvRequeue,
		Note: fmt.Sprintf("requeue %d: attempt budget exhausted", j.requeues)})
}

// resolveInflight picks up late outcomes of wall-mode commits charged
// optimistically: a retry still gets its recovery metrics, and an
// abort still degrades the job — its already-scheduled completion is
// staled by the requeue's version bump.
func (s *sim) resolveInflight() error {
	if len(s.inflight) == 0 {
		return nil
	}
	var keep []*pendingChange
	degraded := false
	for _, p := range s.inflight {
		out := p.out.Load()
		if out == nil {
			keep = append(keep, p)
			continue
		}
		s.converge(p, out)
		if out.attempts > 1 {
			s.retries += out.attempts - 1
			s.retryBytes += int64(out.attempts-1) * p.ch.stats.MovedBytes
			if s.reg != nil {
				s.reg.Add("job."+p.j.spec.Name+".retries", int64(out.attempts-1))
				s.reg.Add("coord.retries", int64(out.attempts-1))
				s.reg.Add("coord.retry_bytes", int64(out.attempts-1)*p.ch.stats.MovedBytes)
			}
		}
		if out.attempts > 1 || out.aborted {
			s.traceLate(p, out)
		}
		if out.aborted && p.j.state == jobRunning && p.j.ver == p.ver {
			degraded = true
			s.timeline[p.tlIdx].Note = appendNote(s.timeline[p.tlIdx].Note,
				fmt.Sprintf("aborted after %d attempts, rolled back to checkpoint", out.attempts))
			s.requeueJob(p.j)
		}
	}
	s.inflight = keep
	if degraded {
		if err := s.admitQueued(); err != nil {
			return err
		}
		return s.expandJobs()
	}
	return nil
}

// converge takes the PTC a commit left the runtime on for the job's
// decided PTC. A commit that ran as planned reports the value decided
// already has; one that re-planned on the chain, or aborted and rolled
// back, reports where the runtime really is. When something newer has
// been decided since, that change's own commit settles it and reports in
// turn; a job that is no longer running has no decided PTC to keep.
func (s *sim) converge(p *pendingChange, out *commitOutcome) {
	if j := p.j; s.opts.Mode == ModeWall && j.state == jobRunning && j.ver == p.ver {
		j.decided = out.ptc
	}
}

func appendNote(note, extra string) string {
	if note == "" {
		return extra
	}
	return note + "; " + extra
}

// --- trace recording (all on the event loop; see internal/obs) ---

// evName is the stable decision-span suffix for an event kind.
func evName(k evKind) string {
	switch k {
	case evArrival:
		return "arrival"
	case evFailure:
		return "failure"
	case evComplete:
		return "complete"
	case evDevRecover:
		return "dev-recover"
	case evSpotNotice:
		return "spot-notice"
	case evSpotDeadline:
		return "spot-deadline"
	case evLinkDegrade:
		return "link-degrade"
	case evLinkRestore:
		return "link-restore"
	}
	return "unknown"
}

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
	}
	if e.kind == evSpotNotice || e.kind == evLinkDegrade {
		attrs["factor"] = e.factor
	}
	s.tr.Record(obs.Span{ID: s.tr.NewID(), Name: "decision/" + evName(e.kind),
		Cat: obs.CatDecision, Job: e.job, TMin: e.time, Attrs: attrs})
}

// traceChange records a finalized change's exec spans: the root
// reconfiguration span (whose DurSec is exactly the downtime charge, so
// per-job root sums reconcile bit for bit with the job gauges) plus
// plan, per-attempt transform, rollback and backoff children laid out
// along the simulated clock. out is nil for a wall-mode optimistic
// charge — the transform is still in flight, so only its first attempt
// is drawn here and traceLate supplements the rest.
func (s *sim) traceChange(p *pendingChange, ch *change, attempts int, down float64, out *commitOutcome) {
	if !s.tr.Enabled() {
		return
	}
	j := p.j
	aborted := out != nil && out.aborted
	attrs := map[string]any{
		"gpus":     len(p.alloc),
		"config":   p.cfg.String(),
		"attempts": attempts,
		"sim_sec":  ch.simSec,
	}
	if aborted {
		attrs["aborted"] = true
		attrs["moved_bytes_attempted"] = ch.stats.MovedBytes
	} else {
		attrs["moved_bytes"] = ch.stats.MovedBytes
	}
	wallNs := ch.planNs
	if out != nil {
		// The outcome publication (p.out) is the barrier that makes the
		// chain's applyNs writes visible.
		wallNs += ch.applyNs
	}
	s.tr.Record(obs.Span{ID: p.spanID, Name: obs.ReconfigPrefix + s.timeline[p.tlIdx].Kind,
		Cat: obs.CatExec, Job: j.spec.Name, TMin: p.tMin, DurSec: down, WallNs: wallNs, Attrs: attrs})
	s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanPlan,
		Cat: obs.CatExec, Job: j.spec.Name, TMin: p.tMin, WallNs: ch.planNs,
		Attrs: map[string]any{"assignments": ch.stats.Assignments}})
	cursor := p.tMin
	for i := 1; i <= attempts; i++ {
		failed := aborted || i < attempts
		s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanTransform,
			Cat: obs.CatExec, Job: j.spec.Name, TMin: cursor, DurSec: ch.simSec,
			Attrs: attemptAttrs(i, failed)})
		cursor += ch.simSec / 60
		if failed {
			s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanRollback,
				Cat: obs.CatExec, Job: j.spec.Name, TMin: cursor})
		}
		if i < attempts {
			if b := s.opts.Recovery.backoffSec(i); b > 0 {
				s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanBackoff,
					Cat: obs.CatExec, Job: j.spec.Name, TMin: cursor, DurSec: b})
				cursor += b / 60
			}
		}
	}
}

func attemptAttrs(i int, failed bool) map[string]any {
	a := map[string]any{"attempt": i}
	if failed {
		a["failed"] = true
	}
	return a
}

// traceLate supplements a wall-mode change whose outcome landed after
// its optimistic charge: the extra attempts (and their rollbacks and
// backoffs) are drawn so the trace's retry count still matches the
// coordinator's.
func (s *sim) traceLate(p *pendingChange, out *commitOutcome) {
	if !s.tr.Enabled() {
		return
	}
	ch := p.ch
	j := p.j
	cursor := p.tMin + ch.simSec/60
	for i := 2; i <= out.attempts; i++ {
		s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanRollback,
			Cat: obs.CatExec, Job: j.spec.Name, TMin: cursor})
		if b := s.opts.Recovery.backoffSec(i - 1); b > 0 {
			s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanBackoff,
				Cat: obs.CatExec, Job: j.spec.Name, TMin: cursor, DurSec: b})
			cursor += b / 60
		}
		failed := out.aborted || i < out.attempts
		s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanTransform,
			Cat: obs.CatExec, Job: j.spec.Name, TMin: cursor, DurSec: ch.simSec,
			Attrs: attemptAttrs(i, failed)})
		cursor += ch.simSec / 60
	}
	if out.aborted {
		s.tr.Record(obs.Span{ID: s.tr.NewID(), Parent: p.spanID, Name: obs.SpanRollback,
			Cat: obs.CatExec, Job: j.spec.Name, TMin: cursor})
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

// choosePlacement scores up to Options.PlacementCandidates concrete
// device sets growing (or placing) job j to n devices total under the
// configuration the parallelizer picked for that size, and asks the
// Policy to rank them — placement chooses WHICH devices, not the
// (T, P, D), so placement-aware runs stay comparable to count-based
// ones decision for decision. cur is the job's current allocation (nil
// at admission); candidates always contain it, so a grow never moves
// the job off devices it holds. nil means no candidate could be scored
// — the caller falls back to the count-based pick.
func (s *sim) choosePlacement(j *simJob, cfg parallel.Config, n int, cur cluster.Allocation) *PlacementCandidate {
	extra := n - len(cur)
	if extra < 1 {
		return nil
	}
	curPl := perfmodel.Placement{Alloc: cur, Config: j.cfg}
	sets := s.ledger.CandidateSets(extra, s.opts.PlacementCandidates, cur)
	var cands []*PlacementCandidate
	for _, set := range sets {
		full := append(append(cluster.Allocation(nil), cur...), set...)
		ps := s.cache.ScorePlacementFor(j.spec.Name, j.spec.Model, cfg, s.topo, full, curPl, s.opts.Perf)
		if !ps.Feasible {
			continue
		}
		cands = append(cands, &PlacementCandidate{
			Devices:        full,
			Config:         ps.Config,
			Spread:         len(full.Workers(s.topo)),
			SamplesSec:     ps.SamplesSec,
			MigrationSec:   ps.MigrationSec,
			MigrationBytes: ps.MigrationBytes,
			Score:          ps.Score,
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

// evictCostFor prices exactly the shrink reclaimFor would commit if it
// picked this victim next — shrink by min(surplus, need), down to the
// largest feasible size, under the cheapest feasible reshape — so the
// prediction and the act agree (victims keep their leading devices;
// the shrink truncates the allocation, matching applyChange). It
// returns the netsim-priced cost and the devices that shrink frees; a
// victim with no feasible shrink right now prices as +Inf.
func (s *sim) evictCostFor(r *simJob, floor, need int) (float64, int) {
	give := len(r.alloc) - floor
	if give > need {
		give = need
	}
	n, _, ok := s.bestAtMost(r.spec.Model, len(r.alloc)-give, floor)
	if !ok || n >= len(r.alloc) {
		return math.Inf(1), 0
	}
	cps, err := s.cache.CheapestPlacementFor(r.spec.Name, r.spec.Model, s.topo, r.alloc[:n],
		perfmodel.Placement{Alloc: r.alloc, Config: r.cfg}, s.opts.Perf)
	if err != nil {
		return math.Inf(1), 0
	}
	return cps.MigrationSec, len(r.alloc) - n
}

// shrinkConfig picks the configuration a forced shrink (preemption or
// recovery) of job j onto alloc should take. Count-based runs keep the
// parallelizer's throughput-best pick; placement-aware runs take the
// cheapest feasible reshape instead — a forced change earns the job
// nothing, so minimal state movement is the objective.
func (s *sim) shrinkConfig(j *simJob, est perfmodel.Estimate, alloc cluster.Allocation) parallel.Config {
	if !s.opts.Placement {
		return est.Config
	}
	cps, err := s.cache.CheapestPlacementFor(j.spec.Name, j.spec.Model, s.topo, alloc,
		perfmodel.Placement{Alloc: j.alloc, Config: j.cfg}, s.opts.Perf)
	if err != nil {
		return est.Config
	}
	return cps.Config
}

// bestAtMost returns the largest feasible lease size n in [low, high]
// with its configuration.
func (s *sim) bestAtMost(m *model.Model, high, low int) (int, perfmodel.Estimate, bool) {
	if low < 1 {
		low = 1
	}
	for n := high; n >= low; n-- {
		if est, err := s.cache.Best(m, s.topo, n, s.opts.Perf); err == nil {
			return n, est, true
		}
	}
	return 0, perfmodel.Estimate{}, false
}

// --- event handlers ---

// dispatch routes one popped event to its decision-plane handler. It
// is the single entry point shared by Run's loop and the service event
// loop, so both planes make decisions through identical code.
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
	if err := s.admitQueued(); err != nil {
		return err
	}
	return s.expandJobs()
}

func (s *sim) onComplete(name string) error {
	j := s.jobs[name]
	rt := j.rt
	// The end-to-end correctness oracle: reassemble the job's state and
	// compare it bit for bit against the initial tensors. It runs on
	// the job's chain, after every committed change. With a pool, a
	// verification failure surfaces at the next flush/drain — the run
	// still errors out, but the timeline returned alongside that error
	// may already hold this completion event (on-error timelines are
	// provisional; only an error-free Run vouches for them).
	tr, vID, vTMin, resizes, decided := s.tr, s.tr.NewID(), s.now, j.resizes, j.alloc
	if err := s.submit(name, func() error {
		if tr.Enabled() {
			rt.obsScope.Set(obs.TaskCtx{T: tr, Parent: vID, Job: rt.name, TMin: vTMin})
		}
		vStart := time.Now()
		// Nothing calls a verify off yet: Cancel refuses a completed job
		// and Stop waits for the chains. The context is here for the day
		// jobs carry one.
		err := rt.verifyState(context.TODO(), j.init)
		if err == nil {
			j.verified.Store(true)
			// The terminal audit of a completed job, here because the
			// release below takes away what auditAll would look at.
			err = rt.audit(decided)
		}
		j.releaseState()
		if tr.Enabled() {
			attrs := map[string]any{"resizes": resizes}
			if err != nil {
				attrs["err"] = err.Error()
			}
			tr.Record(obs.Span{ID: vID, Name: obs.SpanVerify, Cat: obs.CatExec,
				Job: rt.name, TMin: vTMin, WallNs: time.Since(vStart).Nanoseconds(),
				Attrs: attrs})
		}
		return err
	}); err != nil {
		return err
	}
	s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvComplete,
		GPUs: 0, Note: fmt.Sprintf("state verified intact after %d resizes", j.resizes)})
	s.ledger.ReleaseAll(name)
	s.cache.DropJob(name)
	j.state = jobDone
	j.doneMin = s.now
	s.releaseModel(j)
	if err := s.admitQueued(); err != nil {
		return err
	}
	if err := s.expandJobs(); err != nil {
		return err
	}
	return s.defragJobs()
}

func (s *sim) onFailure(dev cluster.DeviceID) error {
	return s.deviceDown(dev, fmt.Sprintf("device %d failed on worker %d", dev, s.topo.WorkerOf(dev)))
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
	survivors := s.ledger.Allocation(owner) // dev already removed
	j.alloc = append(cluster.Allocation(nil), survivors...)
	full := append(cluster.Allocation(nil), survivors...)
	var repl []cluster.DeviceID
	if got, ok := s.ledger.Pick(1, survivors); ok {
		repl = got
		full = append(full, got...)
	}
	n, est, ok := s.bestAtMost(j.spec.Model, len(full), 1)
	if !ok || n == 0 {
		// No devices left to recover onto: the job is lost.
		s.ledger.ReleaseAll(owner)
		s.cache.DropJob(owner)
		j.state = jobLost
		j.doneMin = s.now
		j.ver++
		s.record(TimelineEvent{TimeMin: s.now, Job: owner, Kind: EvLost,
			Note: "no healthy devices to recover onto"})
		s.releaseTerminal(j)
		return nil
	}
	alloc := full[:n]
	recNote := fmt.Sprintf("recovered from loss of device %d", dev)
	if len(repl) > 0 && alloc.Contains(repl[0]) {
		recNote += fmt.Sprintf(", replacement device %d", repl[0])
	}
	if err := s.applyChange(j, s.shrinkConfig(j, est, alloc), alloc, []cluster.DeviceID{dev}, EvRecover, recNote); err != nil {
		return err
	}
	// A size-constrained recovery may have released healthy devices;
	// let the queue and the other jobs use them.
	if err := s.admitQueued(); err != nil {
		return err
	}
	return s.expandJobs()
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
	if err := s.admitQueued(); err != nil {
		return err
	}
	return s.expandJobs()
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
	full := append(cluster.Allocation(nil), keep...)
	if got, ok := s.ledger.Pick(1, keep); ok {
		full = append(full, got...)
	}
	n, est, ok := s.bestAtMost(j.spec.Model, len(full), 1)
	if !ok || n == 0 {
		return nil // nowhere to migrate; the deadline will handle it
	}
	alloc := full[:n]
	note := fmt.Sprintf("migrated off draining device %d", dev)
	return s.applyChange(j, s.shrinkConfig(j, est, alloc), alloc, nil, EvRedeploy, note)
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
// while the window is open run against the degraded bandwidth (netsim
// reads Topology.WorkerNetBW); the perfmodel's placement estimates
// deliberately stay on nominal bandwidth.
func (s *sim) onLinkChange(worker int, factor float64) error {
	s.topo.SetNetScale(worker, factor)
	kind, note := EvLinkDegrade, fmt.Sprintf("worker %d NIC at %.0f%% bandwidth", worker, factor*100)
	if factor == 1 {
		kind, note = EvLinkRestore, fmt.Sprintf("worker %d NIC restored", worker)
	}
	s.record(TimelineEvent{TimeMin: s.now, Kind: kind, Note: note})
	return nil
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
		if free := s.ledger.FreeCount(); free < high {
			high = free
		}
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
		if s.opts.Placement {
			if pc := s.choosePlacement(j, cfg, n, nil); pc != nil {
				devs = pc.Devices
			}
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
		if j.admitted {
			// Re-admission of a requeued job: redeploy its checkpointed
			// state onto the new placement and resume the remaining
			// duration. The restore is priced like any other change, so
			// the completion push waits for flush.
			rem := j.spec.DurationMin - j.servedMin
			if rem < 0 {
				rem = 0
			}
			j.complAt = s.now + rem
			s.plans++
			s.reg.Add("coord.plans", 1)
			p := &pendingChange{j: j, cfg: cfg, alloc: j.alloc,
				seq: s.reserveSeq(), ver: j.ver, tlIdx: len(s.timeline),
				spanID: s.tr.NewID(), tMin: s.now}
			s.dequeue(name)
			s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvAdmit,
				GPUs: n, Config: cfg.String(),
				Note: fmt.Sprintf("re-admitted from checkpoint, %.1f min remaining", rem)})
			s.pending = append(s.pending, p)
			rt, tr, m, wall := j.rt, s.tr, j.spec.Model, s.opts.Mode == ModeWall
			price := func() (err error) {
				if p.ch, err = planRestore(m, s.topo, p.cfg, p.alloc); err != nil {
					err = fmt.Errorf("coordinator: restore plan %s: %w", name, err)
				}
				return err
			}
			if wall {
				// flush reads p.ch on this goroutine, and nothing orders that
				// read after a task on the job's chain: the price is a pure
				// function of decision-plane state, so it is computed here
				// and only the restore itself goes to the chain.
				if err := price(); err != nil {
					return err
				}
				j.decided = p.ch.to
			}
			if err := s.submit(name, func() error {
				if tr.Enabled() {
					rt.obsScope.Set(obs.TaskCtx{T: tr, Parent: p.spanID, Job: rt.name, TMin: p.tMin})
				}
				if !wall {
					// ModeSim: priced on the chain, fanned out with the rest of
					// the batch; flush joins the chains before it reads p.ch.
					if err := price(); err != nil {
						return err
					}
				}
				out := commitOutcome{attempts: 1, err: rt.commitRestore(p.ch)}
				out.ptc = rt.ptc
				j.deployed.Store(out.err == nil)
				p.out.Store(&out)
				return out.err
			}); err != nil {
				return err
			}
			continue
		}
		j.admitted = true
		j.admitMin = s.now
		j.complAt = s.now + j.spec.DurationMin
		s.push(event{time: j.complAt, kind: evComplete, job: name, ver: j.ver})
		s.dequeue(name)
		s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: EvAdmit,
			GPUs: n, Config: cfg.String()})
		// First placement: materialize the initial tensors, load them
		// into the Tensor Stores and persist the baseline checkpoint —
		// all on the job's chain. In ModeWall the PTC they are placed
		// under is built here, metadata only, because it is also the
		// job's first decided PTC: the scale-out that usually follows in
		// this same event is planned against it while the deploy is
		// still moving bytes. In ModeSim deploy builds it on the chain.
		rt, spec := j.rt, j.spec
		alloc := j.alloc
		if s.opts.Mode == ModeWall {
			ptc, err := parallel.BuildPTC(spec.Model, cfg, alloc)
			if err != nil {
				return fmt.Errorf("coordinator: deploy %s: %w", name, err)
			}
			j.decided = ptc
		}
		ptc := j.decided
		tr, depID, depTMin := s.tr, s.tr.NewID(), s.now
		if err := s.submit(name, func() error {
			if tr.Enabled() {
				rt.obsScope.Set(obs.TaskCtx{T: tr, Parent: depID, Job: rt.name, TMin: depTMin})
			}
			if j.init == nil {
				j.init = initState(spec.Model, spec.Seed)
			}
			depStart := time.Now()
			err := rt.deploy(ptc, cfg, alloc, j.init)
			j.deployed.Store(err == nil)
			if tr.Enabled() {
				attrs := map[string]any{"gpus": len(alloc), "config": cfg.String()}
				if err != nil {
					attrs["err"] = err.Error()
				}
				tr.Record(obs.Span{ID: depID, Name: obs.SpanDeploy, Cat: obs.CatExec,
					Job: rt.name, TMin: depTMin, WallNs: time.Since(depStart).Nanoseconds(),
					Attrs: attrs})
			}
			return err
		}); err != nil {
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
					rv.EvictCostSec, rv.EvictFreed = s.evictCostFor(r, floor, target-s.ledger.FreeCount())
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
		need := target - s.ledger.FreeCount()
		give := len(victim.alloc) - floors[pick.Name]
		if give > need {
			give = need
		}
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
		if err := s.applyChange(victim, s.shrinkConfig(victim, est, alloc), alloc, nil, EvScaleIn, note); err != nil {
			return false, err
		}
	}
	return true, nil
}

// minFeasible returns the smallest feasible lease size in [low, high].
func (s *sim) minFeasible(m *model.Model, low, high int) (int, bool) {
	if low < 1 {
		low = 1
	}
	for n := low; n <= high; n++ {
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
		high := cur + free
		if limit := limitOf(pick); high > limit {
			high = limit
		}
		n, est, ok := s.bestAtMost(pick.spec.Model, high, cur+1)
		if !ok || n <= cur {
			stuck[pick.spec.Name] = true
			continue
		}
		cfg := est.Config
		var alloc cluster.Allocation
		if s.opts.Placement {
			if pc := s.choosePlacement(pick, cfg, n, pick.alloc); pc != nil {
				alloc = pc.Devices
			}
		}
		if alloc == nil {
			extra, got := s.ledger.Pick(n-cur, pick.alloc)
			if !got {
				return nil
			}
			alloc = append(append(cluster.Allocation(nil), pick.alloc...), extra...)
		}
		if err := s.applyChange(pick, cfg, alloc, nil, EvScaleOut, ""); err != nil {
			return err
		}
	}
}

// defragJobs redeploys fragmented jobs onto fewer workers when a
// compact placement exists and its netsim-priced cost stays under the
// configured ceiling — the paper's redeployment scenario (§6.3) driven
// by the cluster, not the user. The cost gate needs the plan before
// the decision, so defrag prices synchronously (after the job's chain
// drains) and fans out only the commit.
func (s *sim) defragJobs() error {
	if s.opts.DefragMaxSec < 0 {
		return nil
	}
	for _, j := range s.running() {
		cur := j.alloc
		curWorkers := len(cur.Workers(s.topo))
		// Cheap exact prune: the minimal achievable worker spread comes
		// straight from the ledger's per-worker summaries, so jobs no
		// compaction can improve skip the O(free-pool) candidate
		// materialization entirely — at datacenter scale that is nearly
		// every job on every event.
		if s.ledger.MinLeaseSpread(j.spec.Name, len(cur)) >= curWorkers {
			continue
		}
		candidate, ok := s.pickCompact(j.spec.Name, len(cur))
		if !ok {
			continue
		}
		if len(cluster.Allocation(candidate).Workers(s.topo)) >= curWorkers {
			continue
		}
		// In placement mode the worker count alone does not justify a
		// move: compaction must win on the same migration-amortized
		// score that placed the job — otherwise defrag would undo a
		// spread the policy deliberately chose and pay back the
		// migration that choice avoided.
		if s.opts.Placement {
			curPl := perfmodel.Placement{Alloc: cur, Config: j.cfg}
			have := s.cache.ScorePlacementFor(j.spec.Name, j.spec.Model, j.cfg, s.topo, cur, curPl, s.opts.Perf)
			want := s.cache.ScorePlacementFor(j.spec.Name, j.spec.Model, j.cfg, s.topo, candidate, curPl, s.opts.Perf)
			if !want.Feasible || !have.Feasible || want.Score <= have.Score {
				continue
			}
		}
		// Same device count, so the job keeps its current (T, P, D);
		// price the move before committing it. ModeWall plans from the
		// decided PTC and waits for nothing; ModeSim plans from the
		// runtime's and has to see the chain idle first.
		from := j.decided
		if s.opts.Mode == ModeSim {
			if err := s.drainJob(j.spec.Name); err != nil {
				return err
			}
			from = j.rt.ptc
		}
		// The chain may have just aborted a commit for this job: the
		// runtime is rolled back to its checkpoint and the next flush
		// requeues the job, so compacting it now would plan against
		// state the decision plane no longer describes.
		if s.abortPending(j) {
			continue
		}
		ch, err := s.planOnLoop(j, from, j.cfg, candidate, nil)
		if err != nil {
			return err
		}
		s.plans++
		s.reg.Add("coord.plans", 1)
		if ch.simSec > s.opts.DefragMaxSec {
			continue
		}
		note := fmt.Sprintf("defragmented %d -> %d workers", curWorkers,
			len(cluster.Allocation(candidate).Workers(s.topo)))
		if err := s.applyPlanned(j, ch, EvRedeploy, note); err != nil {
			return err
		}
	}
	return nil
}

// abortPending reports whether j has a decided change whose commit
// already aborted: the job will be requeued at the next flush, so no
// further change should be decided on top of it. Exact only after the
// job's chain has drained, which ModeSim's defrag sees to (otherwise
// the outcome may not have landed yet, and reading it would vary with
// the worker count); in ModeWall it catches the aborts that have
// landed, and a change decided over one that has not re-plans on the
// chain.
func (s *sim) abortPending(j *simJob) bool {
	for _, p := range s.pending {
		if p.j == j {
			if out := p.out.Load(); out != nil && out.aborted {
				return true
			}
		}
	}
	for _, p := range s.inflight {
		if p.j == j {
			if out := p.out.Load(); out != nil && out.aborted {
				return true
			}
		}
	}
	return false
}

// pickCompact selects n devices for job as if its own lease were free,
// yielding the most compact placement the cluster currently allows.
func (s *sim) pickCompact(job string, n int) ([]cluster.DeviceID, bool) {
	own := s.ledger.Allocation(job)
	avail := append(append(cluster.Allocation(nil), own...), s.ledger.Free()...)
	return packCompact(s.topo, avail, n, nil)
}

// applyChange decides one allocation change of a running job: ledger
// mutations and bookkeeping happen immediately on the event loop; the
// State Transformer executes on the job's task chain. In ModeWall the
// plan is priced here, against the job's decided PTC (its netsim cost
// schedules the job's completion), and only the transform fans out; in
// ModeSim the plan runs on the chain too, against the runtime's PTC.
func (s *sim) applyChange(j *simJob, cfg parallel.Config, alloc cluster.Allocation,
	failed []cluster.DeviceID, kind, note string) error {
	s.plans++
	s.reg.Add("coord.plans", 1)
	if s.opts.Mode == ModeWall {
		ch, err := s.planOnLoop(j, j.decided, cfg, alloc, failed)
		if err != nil {
			return err
		}
		return s.applyPlanned(j, ch, kind, note)
	}
	p, err := s.decideChange(j, cfg, alloc, kind, note)
	if err != nil {
		return err
	}
	rt := j.rt
	return s.submit(j.spec.Name, func() error {
		ch, err := rt.plan(p.cfg, p.alloc, failed)
		if err != nil {
			return err
		}
		p.ch = ch
		return s.runCommit(rt, p, ch)
	})
}

// planOnLoop prices a change of j on the event loop. From the job's
// decided PTC — every change ModeWall decides — nothing it reads belongs
// to the job's chain, so no decision waits for one; ModeSim's defrag
// hands it the runtime's PTC, behind a drained chain.
func (s *sim) planOnLoop(j *simJob, from *core.PTC, cfg parallel.Config, alloc cluster.Allocation,
	failed []cluster.DeviceID) (*change, error) {
	ch, err := planChange(j.spec.Model, s.topo, from, cfg, alloc, failed)
	if err != nil {
		return nil, fmt.Errorf("coordinator: plan %s: %w", j.spec.Name, err)
	}
	return ch, nil
}

// runCommit executes one decided change's transactional commit on the
// job's chain and posts the outcome for flush. An aborted outcome is
// not a chain error — graceful degradation happens on the event loop.
// The chaos attempt key derives from the change's reserved sequence
// number, decision-plane state that is identical at any worker count.
func (s *sim) runCommit(rt *jobRuntime, p *pendingChange, ch *change) error {
	if s.tr.Enabled() {
		rt.obsScope.Set(obs.TaskCtx{T: s.tr, Parent: p.spanID, Job: rt.name, TMin: p.tMin})
	}
	out := rt.commitRetry(ch, s.inj, s.opts.Recovery, uint64(p.seq)<<8)
	out.ptc = rt.ptc
	p.out.Store(&out)
	if out.err != nil && !out.aborted {
		return out.err
	}
	return nil
}

// applyPlanned commits an already-priced change: defrag's, and every
// change ModeWall decides.
func (s *sim) applyPlanned(j *simJob, ch *change, kind, note string) error {
	p, err := s.decideChange(j, ch.cfg, ch.alloc, kind, note)
	if err != nil {
		return err
	}
	p.ch = ch
	if s.opts.Mode == ModeWall {
		j.decided = ch.to
	}
	rt := j.rt
	return s.submit(j.spec.Name, func() error { return s.runCommit(rt, p, ch) })
}

// decideChange books one allocation change at decision time: it moves
// the lease (new devices in, vacated ones out), updates the
// decision-plane mirrors, reserves the completion event's sequence
// number and appends the timeline placeholder flush will finalize.
func (s *sim) decideChange(j *simJob, cfg parallel.Config, alloc cluster.Allocation, kind, note string) (*pendingChange, error) {
	name := j.spec.Name
	held := map[cluster.DeviceID]bool{}
	for _, d := range s.ledger.Allocation(name) {
		held[d] = true
	}
	var fresh []cluster.DeviceID
	inNew := map[cluster.DeviceID]bool{}
	for _, d := range alloc {
		inNew[d] = true
		if !held[d] {
			fresh = append(fresh, d)
		}
	}
	var vacate []cluster.DeviceID
	for d := range held {
		if !inNew[d] {
			vacate = append(vacate, d)
		}
	}
	sort.Slice(vacate, func(i, j int) bool { return vacate[i] < vacate[j] })
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
	p := &pendingChange{
		j:      j,
		cfg:    cfg,
		alloc:  j.alloc,
		seq:    s.reserveSeq(),
		ver:    j.ver,
		tlIdx:  len(s.timeline),
		spanID: s.tr.NewID(),
		tMin:   s.now,
	}
	s.record(TimelineEvent{TimeMin: s.now, Job: name, Kind: kind,
		GPUs: len(alloc), Config: cfg.String(), Note: note})
	s.pending = append(s.pending, p)
	return p, nil
}

// checkInvariants asserts, after every event, that the ledger is
// consistent and that each running job's decided allocation matches
// its lease exactly. In ModeSim — where flush has just joined every
// chain — it additionally checks that the runtime caught up with the
// decision plane and that each PTC is valid.
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
		if s.opts.Mode == ModeSim && j.rt.ptc != nil && s.auditDue() {
			if err := j.rt.audit(j.alloc); err != nil {
				return err
			}
		}
	}
	return nil
}

// auditDue reports whether the current event is one of the
// AuditStride-th events that run the full per-job runtime audit.
func (s *sim) auditDue() bool {
	return s.opts.AuditStride <= 1 || s.eventIdx%s.opts.AuditStride == 0
}

// audit asserts that a job's execution plane caught up with the
// decision plane exactly — the devices it decided, not just as many —
// and that its PTC is valid. It may only run while nothing else is
// running on the job's chain: after a ModeSim flush, after the
// terminal drain, or as part of a task of that chain.
func (r *jobRuntime) audit(decided cluster.Allocation) error {
	if len(r.alloc) != len(decided) {
		return fmt.Errorf("coordinator: %s runtime alloc has %d devices, decided %d",
			r.name, len(r.alloc), len(decided))
	}
	for _, d := range r.alloc {
		if !decided.Contains(d) {
			return fmt.Errorf("coordinator: %s runtime holds device %d outside its decided allocation",
				r.name, d)
		}
	}
	if err := r.ptc.Validate(); err != nil {
		return fmt.Errorf("coordinator: %s: %w", r.name, err)
	}
	return nil
}

// auditAll is the terminal sweep after the final drain: every job still
// running must have its runtime consistent with its last decided
// placement — ModeWall skips per-event runtime audits (chains are in
// flight), so this is where a placement divergence would surface. A
// completed job was audited by its verify task, before it released its
// runtime.
func (s *sim) auditAll() error {
	for _, name := range s.order {
		j := s.jobs[name]
		if j.rt.ptc == nil || j.state != jobRunning {
			// Never deployed, released (completed, lost, canceled), or
			// parked by a requeue — a requeued job's runtime sits at its
			// checkpointed pre-abort placement with no decided allocation
			// to audit against.
			continue
		}
		if err := j.rt.audit(j.alloc); err != nil {
			return err
		}
	}
	return nil
}

func (s *sim) result(start time.Time) Result {
	res := Result{
		Timeline:         s.timeline,
		Policy:           s.policy.Name(),
		MakespanMin:      s.now,
		ReconfigSecTotal: s.reconfigSec,
		Preemptions:      s.preemptions,
		PlansValidated:   s.plans,
		InvariantChecks:  s.checks,
		WallNs:           time.Since(start).Nanoseconds(),

		Retries:            s.retries,
		Requeues:           s.requeues,
		QuarantinedDevices: len(s.quarantined),
		RetryBytes:         s.retryBytes,
		RecoverySec:        s.recoverySec,
		DecisionNs:         s.decisionNs,
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
