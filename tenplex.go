// Package tenplex is the public entry point of this reproduction of
// "Tenplex: Dynamic Parallelism for Deep Learning using Parallelizable
// Tensor Collections" (SOSP 2024): a state management library that lets
// DL jobs with multi-dimensional parallelism change their GPU
// allocation at runtime.
//
// A Job externalizes its training state — model parameters, optimizer
// moments and the dataset cursor — into per-device Tensor Stores,
// described by a parallelizable tensor collection (PTC). When the
// scheduler changes the allocation, the job asks the parallelizer
// (internal/perfmodel) for the best new (tensor, pipeline, data)
// configuration, diffs the old and new PTCs into a minimal
// split/move/merge plan (internal/core), and executes it with the
// distributed State Transformer (internal/transform).
//
// Beyond the single-job API, Cluster exposes the multi-job control
// plane (internal/coordinator): a device ledger, admission queue and
// arbitration policy that reallocate one shared topology among many
// competing elastic jobs, reconfiguring each through the same
// job.Runtime.
//
// See internal/job's package comment for the per-job stack both drive,
// internal/coordinator/doc.go for the control plane's design, and
// EXPERIMENTS.md for the paper-vs-measured record of every reproduced
// table and figure.
package tenplex

import (
	"context"
	"fmt"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/core"
	"tenplex/internal/dataset"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
	"tenplex/internal/sched"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// JobConfig describes a training job to manage.
type JobConfig struct {
	// Name scopes store paths and checkpoints.
	Name string
	// Model is the catalog of the job's state tensors.
	Model *model.Model
	// Topology is the cluster the job runs on.
	Topology *cluster.Topology
	// Perf tunes the parallelizer's cost model; zero value uses
	// perfmodel.DefaultParams.
	Perf perfmodel.Params
	// Seed drives the dataset order.
	Seed int64
}

// ReconfigReport summarizes one reconfiguration.
type ReconfigReport struct {
	From, To         parallel.Config
	FromGPUs, ToGPUs int
	// MovedBytes crossed a device boundary.
	MovedBytes int64
	// StorageBytes were read from persisted checkpoints.
	StorageBytes int64
	// SimulatedSec is the modeled transfer time on the topology.
	SimulatedSec float64
	// Plan statistics.
	Splits, Merges, Fetches int
}

// Job is a managed training job, the parallelizer's policy over one
// job.Runtime. It is not safe for concurrent use; the scheduler
// serializes resource changes.
type Job struct {
	cfg    JobConfig
	rt     *job.Runtime
	cursor dataset.Cursor
	step   int
}

// NewJob prepares a job on the topology: one in-memory Tensor Store per
// device plus a blob store standing in for remote checkpoint storage.
func NewJob(cfg JobConfig) (*Job, error) {
	if cfg.Name == "" || cfg.Model == nil || cfg.Topology == nil {
		return nil, fmt.Errorf("tenplex: JobConfig needs Name, Model and Topology")
	}
	if cfg.Perf.GlobalBatch == 0 {
		cfg.Perf = perfmodel.DefaultParams()
	}
	j := &Job{
		cfg: cfg,
		rt: &job.Runtime{Name: cfg.Name, Model: cfg.Model, Topo: cfg.Topology,
			Stores:  map[cluster.DeviceID]store.Access{},
			Storage: store.Local{FS: store.NewMemFS()}},
		cursor: dataset.Cursor{Seed: cfg.Seed},
	}
	for _, d := range cfg.Topology.Devices {
		j.rt.Stores[d.ID] = store.Local{FS: store.NewMemFS()}
	}
	return j, nil
}

// Stores exposes the per-device Tensor Stores (read-mostly; examples
// and tests inspect them).
func (j *Job) Stores() map[cluster.DeviceID]store.Access { return j.rt.Stores }

// Config returns the current parallelization configuration.
func (j *Job) Config() parallel.Config { return j.rt.Config }

// Allocation returns the current device allocation.
func (j *Job) Allocation() cluster.Allocation { return append(cluster.Allocation(nil), j.rt.Alloc...) }

// PTC returns the current parallelizable tensor collection.
func (j *Job) PTC() *core.PTC { return j.rt.PTC }

// Cursor returns a pointer to the dataset cursor (the dataset state of
// the PTC); the training loop advances it.
func (j *Job) Cursor() *dataset.Cursor { return &j.cursor }

// Step returns the job's completed training steps.
func (j *Job) Step() int { return j.step }

// SetStep records training progress (called by the training loop).
func (j *Job) SetStep(s int) { j.step = s }

// Deploy places the job on nGPUs devices with the parallelizer's best
// configuration and loads the initial state into the Tensor Stores.
func (j *Job) Deploy(nGPUs int, init map[core.TensorID]*tensor.Tensor) error {
	best, err := perfmodel.Best(j.cfg.Model, j.cfg.Topology, nGPUs, j.cfg.Perf)
	if err != nil {
		return fmt.Errorf("tenplex: deploy: %w", err)
	}
	return j.DeployWith(best.Config, j.cfg.Topology.FirstN(nGPUs), init)
}

// DeployWith places the job with an explicit configuration and
// allocation.
func (j *Job) DeployWith(cfg parallel.Config, alloc cluster.Allocation, init map[core.TensorID]*tensor.Tensor) error {
	ptc, err := parallel.BuildPTC(j.cfg.Model, cfg, alloc)
	if err != nil {
		return fmt.Errorf("tenplex: deploy: %w", err)
	}
	if err := j.rt.Deploy(ptc, cfg, alloc, init); err != nil {
		return fmt.Errorf("tenplex: %w", err)
	}
	return nil
}

// Reconfigure moves the job to nGPUs devices, picking the best new
// configuration, computing the minimal plan against the current PTC and
// executing it. It is the scheduler's entry point (§5.4).
func (j *Job) Reconfigure(nGPUs int) (ReconfigReport, error) {
	best, err := perfmodel.Best(j.cfg.Model, j.cfg.Topology, nGPUs, j.cfg.Perf)
	if err != nil {
		return ReconfigReport{}, fmt.Errorf("tenplex: reconfigure: %w", err)
	}
	return j.ReconfigureWith(best.Config, j.cfg.Topology.FirstN(nGPUs))
}

// ReconfigureWith moves the job to an explicit configuration and
// allocation.
func (j *Job) ReconfigureWith(cfg parallel.Config, alloc cluster.Allocation) (ReconfigReport, error) {
	return j.change("reconfigure", cfg, alloc, nil)
}

// Recover handles a fail-stop loss of devices: the degraded PTC keeps
// only surviving replicas, and ranges no replica holds are read back
// from the latest persisted checkpoint.
func (j *Job) Recover(failed []cluster.DeviceID, newGPUs int) (ReconfigReport, error) {
	best, err := perfmodel.Best(j.cfg.Model, j.cfg.Topology, newGPUs, j.cfg.Perf)
	if err != nil {
		return ReconfigReport{}, fmt.Errorf("tenplex: recover: %w", err)
	}
	var alloc cluster.Allocation
	for _, d := range j.cfg.Topology.Devices {
		if !cluster.Allocation(failed).Contains(d.ID) && len(alloc) < newGPUs {
			alloc = append(alloc, d.ID)
		}
	}
	if len(alloc) < newGPUs {
		return ReconfigReport{}, fmt.Errorf("tenplex: only %d healthy devices for %d GPUs", len(alloc), newGPUs)
	}
	return j.change("recover", best.Config, alloc, failed)
}

// change plans the move onto (cfg, alloc) from the current placement
// less the failed devices, applies it and reports what it cost; when to
// checkpoint the new layout is the caller's call.
func (j *Job) change(what string, cfg parallel.Config, alloc cluster.Allocation, failed []cluster.DeviceID) (ReconfigReport, error) {
	if j.rt.PTC == nil {
		return ReconfigReport{}, fmt.Errorf("tenplex: job %q not deployed", j.cfg.Name)
	}
	ch, err := job.Plan(j.cfg.Model, j.cfg.Topology, j.rt.PTC, cfg, alloc, failed)
	if err != nil {
		return ReconfigReport{}, fmt.Errorf("tenplex: %s: %w", what, err)
	}
	rep := ReconfigReport{
		From: j.rt.Config, To: cfg,
		FromGPUs: len(j.rt.Alloc), ToGPUs: len(alloc),
		MovedBytes:   ch.Stats.MovedBytes,
		StorageBytes: ch.Stats.StorageBytes,
		SimulatedSec: ch.SimSec,
		Splits:       ch.Stats.Splits, Merges: ch.Stats.Merges, Fetches: ch.Stats.Fetches,
	}
	if _, err := j.rt.Apply(context.TODO(), ch); err != nil {
		return ReconfigReport{}, fmt.Errorf("tenplex: %w", err)
	}
	return rep, nil
}

// Checkpoint persists the current partitioned state to remote storage.
func (j *Job) Checkpoint() error {
	if j.rt.PTC == nil {
		return fmt.Errorf("tenplex: job %q not deployed", j.cfg.Name)
	}
	return j.rt.Checkpoint()
}

// State assembles and returns the job's full logical tensors from the
// distributed sub-tensors — what the DL system loads to resume.
func (j *Job) State() (map[core.TensorID]*tensor.Tensor, error) {
	if j.rt.PTC == nil {
		return nil, fmt.Errorf("tenplex: job %q not deployed", j.cfg.Name)
	}
	return j.rt.State(context.TODO())
}

// WriteState pushes updated full tensors back into the stores under the
// current PTC (the DL system calls it after training steps, the
// equivalent of tenplex.save in §5.2).
func (j *Job) WriteState(full map[core.TensorID]*tensor.Tensor) error {
	if j.rt.PTC == nil {
		return fmt.Errorf("tenplex: job %q not deployed", j.cfg.Name)
	}
	return j.rt.Deploy(j.rt.PTC, j.rt.Config, j.rt.Alloc, full)
}

// HandleEvent adapts the job to a scheduler event, returning the
// simulated reconfiguration time; it lets a Job drive sched.Run.
// A Failure event keeps the first e.GPUs devices of the allocation and
// fails the rest, so it must leave between 1 and len(Allocation())-1.
func (j *Job) HandleEvent(e sched.Event) (ReconfigReport, error) {
	if e.Kind == sched.Failure {
		if j.rt.PTC == nil {
			return ReconfigReport{}, fmt.Errorf("tenplex: job %q not deployed", j.cfg.Name)
		}
		if e.GPUs < 1 || e.GPUs >= len(j.rt.Alloc) {
			return ReconfigReport{}, fmt.Errorf("tenplex: failure event leaves %d of %d devices", e.GPUs, len(j.rt.Alloc))
		}
		return j.Recover(j.rt.Alloc[e.GPUs:], e.GPUs)
	}
	return j.Reconfigure(e.GPUs)
}

// ClusterJob, ClusterFailure and ClusterResult are the public names of
// the coordinator's job spec, failure injection and simulation result.
type (
	ClusterJob     = coordinator.JobSpec
	ClusterFailure = coordinator.FailureSpec
	ClusterResult  = coordinator.Result
)

// ClusterConfig describes a multi-job cluster to coordinate.
type ClusterConfig struct {
	// Topology is the shared cluster all jobs compete for.
	Topology *cluster.Topology
	// Perf tunes the placement cost model; the zero value uses the
	// coordinator's reduced-scale default.
	Perf perfmodel.Params
	// DefragMaxSec caps the netsim-priced cost of voluntary
	// defragmenting redeployments (0 = default, negative = disabled).
	DefragMaxSec float64
	// Policy selects the scheduling policy: "" or "fifo" (arrival
	// order, head-of-line blocking, largest-surplus preemption), "drf"
	// (dominant-resource fairness), or "priority" (priority classes
	// with gang admission, driven by ClusterJob.Priority).
	Policy string
	// Placement enables allocation-aware placement scoring: the
	// coordinator enumerates candidate device sets per admission and
	// expansion, scores each concrete set (TP-group locality,
	// worst-link bandwidth, netsim-priced state migration) and lets
	// the policy rank them; preemption victims are scored by the
	// netsim cost of evicting them and forced shrinks take the
	// cheapest feasible reshape. Off (the default), runs are
	// byte-identical to the count-based coordinator.
	Placement bool
	// WallClock switches the runtime from deterministic simulated time
	// to the wall-clock mode: the event heap is paced on the real
	// clock (WallScale per simulated minute) and independent jobs'
	// reconfigurations overlap on the worker pool. Decisions — and the
	// returned timeline — are identical to the deterministic mode.
	WallClock bool
	// Workers bounds the pool executing per-job deploy/transform/verify
	// work (0 = GOMAXPROCS, 1 = fully serialized event loop); planning
	// runs on the event loop either way.
	Workers int
	// WallScale is the real duration of one simulated minute in
	// wall-clock mode (0 = the coordinator default).
	WallScale time.Duration
}

// Cluster is the multi-job elastic control plane: a device ledger, an
// admission queue and an arbitration policy that manage a fleet of
// concurrent Tenplex jobs on one shared topology, reconfiguring each
// job's PTC through the planner and State Transformer as its GPU
// allocation changes. It complements the single-job Job API with the
// cluster-side half of the paper's scenario.
type Cluster struct {
	cfg ClusterConfig
}

// NewCluster prepares a coordinator for the topology.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Topology == nil || cfg.Topology.NumDevices() == 0 {
		return nil, fmt.Errorf("tenplex: ClusterConfig needs a Topology")
	}
	if _, err := coordinator.PolicyByName(cfg.Policy); err != nil {
		return nil, fmt.Errorf("tenplex: %w", err)
	}
	return &Cluster{cfg: cfg}, nil
}

// Run executes a multi-job coordinator run: jobs arrive, are admitted
// and placed under the configured policy, resize elastically under
// contention, survive the injected failures, and complete with their
// state verified. It returns the per-job timeline and aggregate
// cluster metrics. With the default configuration the run is
// deterministic; WallClock paces it on the real clock with the same
// timeline.
func (c *Cluster) Run(jobs []ClusterJob, failures []ClusterFailure) (ClusterResult, error) {
	policy, err := coordinator.PolicyByName(c.cfg.Policy)
	if err != nil {
		return ClusterResult{}, fmt.Errorf("tenplex: %w", err)
	}
	opts := coordinator.Options{
		Perf:         c.cfg.Perf,
		DefragMaxSec: c.cfg.DefragMaxSec,
		Policy:       policy,
		Placement:    c.cfg.Placement,
		Workers:      c.cfg.Workers,
		WallScale:    c.cfg.WallScale,
	}
	if c.cfg.WallClock {
		opts.Mode = coordinator.ModeWall
	}
	return coordinator.Run(c.cfg.Topology, jobs, failures, opts)
}
