// Package job is one job's state-management stack — per-device Tensor
// Stores, checkpoint storage, the current PTC — and the one place that
// says what a reconfiguration is: build the target, align it, plan,
// validate, price, open the latest checkpoint as fallback, transform,
// advance the PTC, re-checkpoint. The coordinator's data plane,
// tenplex.Job and the experiments all drive it.
//
// The planning half (Plan, PlanTo, Price, PlanRestore) is pure. The
// Runtime half is one method per phase and takes no callback: a caller
// composes the phases it wants (the coordinator arms fault injection
// around Apply alone; tenplex.Job leaves Checkpoint to its user) and
// times them from outside. The package knows no event loop, scheduler,
// fault injector or API.
package job

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"tenplex/internal/checkpoint"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/netsim"
	"tenplex/internal/obs"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// Change is a validated, not-yet-applied allocation change: a caller
// prices it, decides, and only then applies it.
type Change struct {
	// Config and Alloc are what the target was built from, in the caller's
	// device order; PlanTo, which is handed only the target, leaves them
	// zero.
	Config parallel.Config
	Alloc  cluster.Allocation
	// From is the PTC the change was planned from, before the Failed
	// devices were taken out of it; To is the target, aligned to it.
	From   *core.PTC
	Failed []cluster.DeviceID
	To     *core.PTC
	Plan   *core.Plan
	// The price: what the plan moves, and netsim's seconds for it.
	Stats  core.Stats
	SimSec float64
}

// Plan computes, validates and prices the reconfiguration of a job of
// model m from the placement from onto (cfg, alloc). When failed is
// non-empty the source is degraded to the surviving replicas and the
// plan may fall back to checkpoint reads (fail-stop recovery).
func Plan(m *model.Model, topo *cluster.Topology, from *core.PTC, cfg parallel.Config,
	alloc cluster.Allocation, failed []cluster.DeviceID) (*Change, error) {
	if err := checkAlloc(topo, alloc, failed); err != nil {
		return nil, err
	}
	to, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		return nil, err
	}
	ch, err := PlanTo(topo, from, to, failed)
	if err != nil {
		return nil, err
	}
	ch.Config, ch.Alloc = cfg, append(cluster.Allocation(nil), alloc...)
	ch.Price(topo)
	return ch, nil
}

// PlanTo is Plan for a target that is already a PTC, without the price:
// degrade the source, align the target's devices to it so that resident
// state stays put, generate the plan and validate it. Of the topology it
// reads only which device sits on which worker, which never changes, so
// it may run while another goroutine marks failures and reprices links.
func PlanTo(topo *cluster.Topology, from, to *core.PTC, failed []cluster.DeviceID) (*Change, error) {
	src := from
	if len(failed) > 0 {
		src = from.WithoutDevices(failed...)
	}
	to = core.AlignDevices(src, to)
	plan, err := core.GeneratePlan(src, to, core.PlanOptions{Topo: topo, StorageFallback: len(failed) > 0})
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("invalid plan: %w", err)
	}
	return &Change{From: from, Failed: failed, To: to, Plan: plan}, nil
}

// checkAlloc rejects an allocation naming a device that topo does not
// have or that has failed: marked failed in topo, or one of failed,
// whose state a fail-stop change recovers. It reads topo's health, so it
// runs where placements are decided, never beside a health mutation.
func checkAlloc(topo *cluster.Topology, alloc cluster.Allocation, failed []cluster.DeviceID) error {
	for _, d := range alloc {
		if err := inTopology(topo, d); err != nil {
			return err
		}
		if topo.FailedDevice(d) || slices.Contains(failed, d) {
			return fmt.Errorf("job: allocation %v: device %d has failed", alloc, d)
		}
	}
	return nil
}

// inTopology rejects a device that topo does not have.
func inTopology(topo *cluster.Topology, d cluster.DeviceID) error {
	if d < 0 || int(d) >= topo.NumDevices() {
		return fmt.Errorf("job: device %d is not in topology %s (%d devices)", d, topo.Name, topo.NumDevices())
	}
	return nil
}

// Price fills in what the change's plan costs on topo.
func (ch *Change) Price(topo *cluster.Topology) {
	ch.Stats = ch.Plan.Stats(topo)
	ch.SimSec = netsim.Simulate(topo, ch.Plan.Flows(topo)).Seconds
}

// PlanRestore prices re-deploying a job of model m from its latest
// checkpoint onto a fresh placement: every sub-tensor of the new PTC
// streams from checkpoint storage to its device, replicas included —
// exactly what Restore, which carries the change out, moves.
func PlanRestore(m *model.Model, topo *cluster.Topology, cfg parallel.Config, alloc cluster.Allocation) (*Change, error) {
	if err := checkAlloc(topo, alloc, nil); err != nil {
		return nil, err
	}
	to, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		return nil, err
	}
	flows := RestoreFlows(to)
	var bytes int64
	for _, f := range flows {
		bytes += f.Bytes
	}
	return &Change{
		Config: cfg,
		Alloc:  append(cluster.Allocation(nil), alloc...),
		To:     to,
		Stats:  core.Stats{StorageBytes: bytes, MovedBytes: bytes},
		SimSec: netsim.Simulate(topo, flows).Seconds,
	}, nil
}

// RestoreFlows is what restoring to from checkpoint storage moves: every
// sub-tensor, replicas included, from storage to its device, in
// to.Devices order, then Place order.
func RestoreFlows(to *core.PTC) []netsim.Flow {
	var flows []netsim.Flow
	for _, d := range to.Devices {
		for _, s := range to.Place[d] {
			flows = append(flows, netsim.Flow{From: netsim.StorageEP(), To: netsim.DevEP(d), Bytes: s.NumBytes(to.Tensors[s.Tensor])})
		}
	}
	return flows
}

// InitState builds a job's deterministic initial tensors from seed on at
// most workers goroutines. Tensor i is filled from its own seed, seed+i,
// so the state is the same bit for bit however the tensors are shared
// out; the fill is compute-bound (about 1.4 GB/s a core, FillRandDense
// keeps the per-tensor RNG setup off it) and sits on the deploy of every
// job.
func InitState(workers int, m *model.Model, seed int64) map[core.TensorID]*tensor.Tensor {
	params := m.StateParams()
	tensors := make([]*tensor.Tensor, len(params))
	var next atomic.Int64
	fill := func() {
		for i := int(next.Add(1)) - 1; i < len(params); i = int(next.Add(1)) - 1 {
			t := tensor.New(params[i].Param.DType, params[i].Param.Shape...)
			t.FillRandDense(seed+int64(i), 0.05)
			tensors[i] = t
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(params)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	fill()
	wg.Wait()
	init := make(map[core.TensorID]*tensor.Tensor, len(params))
	for i, lp := range params {
		init[core.TensorID(lp.Path())] = tensors[i]
	}
	return init
}

// Runtime is one job's state on its stores. Its owner fills in the first
// block and calls the phases one at a time (a Runtime is not safe for
// concurrent use); the second block is the job's current placement,
// written by Deploy, Apply and Restore and read-only to everyone else.
// A phase's error names the operation that failed, not the job: the
// owner, who knows which it called, adds that.
type Runtime struct {
	Name  string
	Model *model.Model
	Topo  *cluster.Topology
	// Stores are the per-device Tensor Stores, one for every device a
	// placement may name. Storage holds the checkpoints: the durability
	// anchor Rollback, Restore and a fail-stop Apply read from.
	Stores  map[cluster.DeviceID]store.Access
	Storage store.Access
	// Metrics (nil when off) takes the transformer's counters; Obs is the
	// task scope the transformer parents its spans under.
	Metrics *obs.Registry
	Obs     obs.ScopeVar

	// PTC is the current placement. Candidate changes priced against it
	// all read the same compiled index, which the PTC builds on first use
	// and keeps (core/index.go); Apply installs a new PTC value, and the
	// old one's index goes with it.
	PTC    *core.PTC
	Config parallel.Config
	Alloc  cluster.Allocation
	// Step numbers the checkpoints: Baseline files the current one,
	// Checkpoint the next.
	Step int
}

// adopt makes (ptc, cfg, alloc) the job's placement. The allocation is
// copied: the caller's slice stays the caller's.
func (r *Runtime) adopt(ptc *core.PTC, cfg parallel.Config, alloc cluster.Allocation) {
	r.PTC, r.Config, r.Alloc = ptc, cfg, append(cluster.Allocation(nil), alloc...)
}

// Deploy writes state — whole logical tensors — into the stores under
// ptc, built from (cfg, alloc), and makes that the job's placement. A
// device the topology does not have, or that has no store, is an error.
// Whether a device has failed is not checked here: a deploy may run
// beside the decision plane that marks failures, and topology health is
// read only there (Plan and PlanRestore check it).
func (r *Runtime) Deploy(ptc *core.PTC, cfg parallel.Config, alloc cluster.Allocation,
	state map[core.TensorID]*tensor.Tensor) error {
	for _, d := range ptc.Devices {
		if r.Topo != nil {
			if err := inTopology(r.Topo, d); err != nil {
				return err
			}
		}
		if _, ok := r.Stores[d]; !ok {
			return fmt.Errorf("job: device %d has no store", d)
		}
	}
	if err := transform.LoadPTC(r.Name, ptc, r.Stores, state); err != nil {
		return err
	}
	r.adopt(ptc, cfg, alloc)
	return nil
}

// Baseline persists state, which the caller has just deployed and still
// holds, as the job's first checkpoint, so that a fail-stop recovery
// always has a storage fallback for ranges whose replicas are all lost.
// The tensors are kept by reference: reading them back from the stores
// to write them down again would move the whole state a second time.
func (r *Runtime) Baseline(state map[core.TensorID]*tensor.Tensor) error {
	return checkpoint.SaveTensors(r.Storage, r.Name, r.Step, r.PTC.Name, state)
}

// Apply executes a planned change through the State Transformer and
// advances the placement to its target. A plan around failed devices
// reads the ranges no replica holds from the latest checkpoint; one that
// cannot be opened surfaces as a failed storage fetch, which wraps the
// reason, and a plan that reads nothing from it applies all the same. A
// failed Apply leaves the placement where it was and the stores for
// Rollback.
func (r *Runtime) Apply(ctx context.Context, ch *Change) (transform.Stats, error) {
	tr := &transform.Transformer{Job: r.Name, Stores: r.Stores, Metrics: r.Metrics, Obs: r.Obs.Get()}
	if len(ch.Failed) > 0 {
		if rd, err := checkpoint.OpenLatest(r.Storage, r.Name); err != nil {
			tr.Storage = unopened{err}
		} else {
			tr.Storage = rd
		}
	}
	st, err := tr.ApplyContext(ctx, ch.Plan)
	if err == nil {
		r.adopt(ch.To, ch.Config, ch.Alloc)
	}
	return st, err
}

// unopened stands in for a checkpoint that could not be opened: every
// range read fails with the reason.
type unopened struct{ err error }

func (u unopened) ReadRange(core.TensorID, tensor.Region) (*tensor.Tensor, error) {
	return nil, fmt.Errorf("open latest checkpoint: %w", u.err)
}

// Checkpoint persists the current placement's state as the next step, so
// that the next failure recovers against the current layout.
func (r *Runtime) Checkpoint() error {
	r.Step++
	return checkpoint.Save(r.Storage, r.Name, r.Step, r.PTC, r.Stores)
}

// reload wipes the job's (possibly half-destroyed) store state and
// streams the latest checkpoint in under ptc.
func (r *Runtime) reload(ptc *core.PTC) error {
	for _, acc := range r.Stores {
		_ = acc.Delete(transform.ModelRoot(r.Name))   // may not exist
		_ = acc.Delete(transform.StagingRoot(r.Name)) // may not exist
	}
	rd, err := checkpoint.OpenLatest(r.Storage, r.Name)
	if err != nil {
		return err
	}
	return checkpoint.Restore(context.Background(), rd, r.Name, ptc, r.Stores)
}

// Rollback puts the stores back to the latest checkpoint under the
// current placement, which Apply advances only on success.
func (r *Runtime) Rollback() error { return r.reload(r.PTC) }

// Restore redeploys the job from its latest checkpoint onto the
// placement of a PlanRestore change.
func (r *Runtime) Restore(ch *Change) error {
	if err := r.reload(ch.To); err != nil {
		return err
	}
	r.adopt(ch.To, ch.Config, ch.Alloc)
	return nil
}

// State assembles the job's full logical tensors from the distributed
// sub-tensors; canceling ctx stops the read.
func (r *Runtime) State(ctx context.Context) (map[core.TensorID]*tensor.Tensor, error) {
	return transform.ReadPTCContext(ctx, r.Name, r.PTC, r.Stores)
}

// Verify checks the job's state against want bit for bit: the end-to-end
// correctness oracle. Tensors are checked in ID order, so the error
// names the same one every time.
func (r *Runtime) Verify(ctx context.Context, want map[core.TensorID]*tensor.Tensor) error {
	got, err := r.State(ctx)
	if err != nil {
		return err
	}
	for _, id := range slices.Sorted(maps.Keys(want)) {
		t, ok := got[id]
		if !ok {
			return fmt.Errorf("lost tensor %s", id)
		}
		if !t.Equal(want[id]) {
			return fmt.Errorf("corrupted tensor %s", id)
		}
	}
	return nil
}

// Release drops what only a live job needs: its stores and checkpoints
// (several times the job's state size), its PTC with the compiled index
// hanging off it, and its model.
func (r *Runtime) Release() {
	r.Model, r.PTC, r.Stores, r.Storage = nil, nil, nil, nil
}
