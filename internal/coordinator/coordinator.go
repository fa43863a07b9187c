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
// The runtime is one decision core and two drivers (doc.go has the
// rules between them). The core owns the ledger, the event heap and every
// scheduling choice, plans and prices every change itself, and reads no
// clock and waits for nothing; what it decides goes through the executor
// (executor.go) to per-job task chains on a bounded worker pool — deploy,
// transform.Apply, checkpointing, state verification — and every outcome
// comes back to it as an input. A driver (driver.go) feeds it and does
// the waiting: the sim driver (ModeSim, the default) joins the chains
// after every decision, so traces are reproducible bit for bit and, under
// the FIFO policy, byte-identical to the original serial loop; the wall
// driver (ModeWall, and every Service) paces the event heap on the real
// clock, so reconfigurations of different jobs genuinely overlap in time.
package coordinator

import (
	"fmt"
	"math"
	"time"

	"tenplex/internal/chaos"
	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/obs"
	"tenplex/internal/perfmodel"
	"tenplex/internal/sched"
	"tenplex/internal/store"
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

// ExecMode selects the driver that feeds a run's decision core.
type ExecMode int

const (
	// ModeSim is the sim driver: the event heap drives the clock, every
	// decision is followed by joining the chains and taking their
	// outcomes, and the run is reproducible bit for bit.
	ModeSim ExecMode = iota
	// ModeWall is the wall driver: it paces the event heap on the real
	// clock (Options.WallScale real time per simulated minute) and joins
	// nothing: an outcome is an input of its own when its chain posts it,
	// so independent jobs' reconfigurations genuinely overlap. Decisions —
	// and therefore the timeline — are identical to ModeSim as long as no
	// commit aborts; only real execution differs.
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
	// Placement enables allocation-aware placement scoring: the
	// coordinator enumerates up to four lease-feasible device sets per
	// admission and expansion (Ledger.CandidateSets), scores each with
	// perfmodel.ScorePlacement (throughput on exactly those devices, less
	// the migration priced by the change it would commit there), lets the
	// Policy rank them and commits the pick's change as scored; forced
	// shrinks take the reshape whose plan moves the fewest bytes, and
	// victims are ranked by those bytes. Disabled (the default), sim
	// traces are byte-identical to the count-based coordinator.
	Placement bool
	// Mode selects the driver: deterministic simulated time (default) or
	// wall-clock pacing. It decides when inputs reach the decision core
	// and where outcomes are waited for, never what the core decides or
	// where a change is planned: that is the core, under both.
	Mode ExecMode
	// Workers bounds the worker pool executing the data plane's commands
	// (deploy, transform, checkpoint, verify); planning is not among
	// them. 0 means GOMAXPROCS; 1 means the fully serialized
	// single-threaded event loop (every command runs inline at its
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
	// AuditStride has the sim driver run the expensive runtime audit
	// (PTC validation for every running job, behind its join) after every
	// AuditStride-th step only; 0 or 1 audits every step (the default).
	// The audit at the end of every run always runs, so a divergence
	// still fails the run — a larger stride only delays where it
	// surfaces. Datacenter-scale simulations (200 jobs × thousands of
	// events) set this to keep O(jobs·state) validation from dominating
	// the run. The wall driver audits at the end only: its chains are
	// never idle before.
	AuditStride int
	// Stores, when non-nil, supplies each job runtime's per-device
	// Tensor Store instead of a fresh in-memory one (asked once per
	// device at the head of the job's deploy, on the job's chain). The
	// coordd daemon points it at real tenplex-store servers (one
	// store.Client per device), so every transform/verify moves bytes
	// over the wire. The checkpoints' pieces live on these stores too,
	// each on a device that does not hold it; only their manifests stay
	// in-process. nil (the default) keeps the original in-memory stores
	// and leaves sim traces byte-identical.
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
	// DecisionNs holds the wall-clock nanoseconds each decision took, one
	// per input the core consumed, in order — the metric the dcscale
	// experiments gate on. The decision plans and prices the changes it
	// decides, under both drivers, so that is timed: it is what
	// tenplex-coordd pays per decision. Executing the decided work and
	// the invariant audits are not. Run fills it; a Service, which never
	// ends, does not.
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
