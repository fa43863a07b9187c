package main

import (
	"context"
	"fmt"
	"time"

	"tenplex/internal/checkpoint"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/netsim"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// jobRT is the benchmark's copy of coordinator.jobRuntime: the same
// public calls in the same order as its deploy / planChange /
// commitAttempt / verifyState, with a phase around each so the traced
// pass can say where the time went. coordinator's type is unexported,
// and calling through the coordinator would put its event loop in the
// measurement; the copy keeps the layers under it bare. If jobRuntime
// changes its call sequence, this file has to follow by hand.
type jobRT struct {
	name    string
	model   *model.Model
	topo    *cluster.Topology
	stores  map[cluster.DeviceID]store.Access
	storage store.Local
	tr      *tracer

	ptc      *core.PTC
	cfg      parallel.Config
	alloc    cluster.Allocation
	step     int
	lastPlan *core.Plan
}

func newJobRT(name string, m *model.Model, topo *cluster.Topology, stores map[cluster.DeviceID]store.Access, tr *tracer) *jobRT {
	return &jobRT{name: name, model: m, topo: topo, stores: stores,
		storage: store.Local{FS: store.NewMemFS()}, tr: tr}
}

// initState is coordinator.initState: the job's deterministic initial
// tensors, which are also the golden copy verify compares against.
func initState(m *model.Model, seed int64) map[core.TensorID]*tensor.Tensor {
	init := map[core.TensorID]*tensor.Tensor{}
	for i, lp := range m.StateParams() {
		t := tensor.New(lp.Param.DType, lp.Param.Shape...)
		t.FillRandDense(seed+int64(i), 0.05)
		init[core.TensorID(lp.Path())] = t
	}
	return init
}

func (r *jobRT) deploy(cfg parallel.Config, alloc cluster.Allocation, init map[core.TensorID]*tensor.Tensor) (time.Duration, error) {
	return r.tr.phase(spanDeploy, func() error {
		ptc, err := parallel.BuildPTC(r.model, cfg, alloc)
		if err != nil {
			return fmt.Errorf("deploy %s: %w", r.name, err)
		}
		if _, err := r.tr.phase(spanLoadPTC, func() error {
			return transform.LoadPTC(r.name, ptc, r.stores, init)
		}); err != nil {
			return fmt.Errorf("deploy %s: %w", r.name, err)
		}
		r.ptc, r.cfg, r.alloc = ptc, cfg, append(cluster.Allocation(nil), alloc...)
		if _, err := r.tr.phase(spanDeployCk, func() error {
			return checkpoint.Save(r.storage, r.name, r.step, r.ptc, r.stores)
		}); err != nil {
			return fmt.Errorf("checkpoint %s: %w", r.name, err)
		}
		return nil
	})
}

// change is a costed, validated, not-yet-applied allocation change.
type change struct {
	cfg       parallel.Config
	alloc     cluster.Allocation
	to        *core.PTC
	plan      *core.Plan
	stats     core.Stats
	simSec    float64
	storageOK bool
}

// planChange is jobRuntime.planChange with a phase per planner call.
func (r *jobRT) planChange(cfg parallel.Config, alloc cluster.Allocation, failed []cluster.DeviceID) (*change, time.Duration, error) {
	ch := &change{cfg: cfg, alloc: append(cluster.Allocation(nil), alloc...)}
	d, err := r.tr.phase(spanPlan, func() error {
		from := r.ptc
		if len(failed) > 0 {
			from = r.ptc.WithoutDevices(failed...)
			ch.storageOK = true
		}
		p, err := planOnce(r.tr, r.topo, r.lastPlan, from, core.PlanOptions{Topo: r.topo, StorageFallback: ch.storageOK},
			func() (*core.PTC, error) { return parallel.BuildPTC(r.model, cfg, alloc) })
		if err != nil {
			return fmt.Errorf("plan %s: %w", r.name, err)
		}
		if from == r.ptc {
			r.lastPlan = p.plan
		}
		ch.to, ch.plan, ch.stats, ch.simSec = p.plan.To, p.plan, p.stats, p.simSec
		return nil
	})
	return ch, d, err
}

// planned is one validated, priced plan.
type planned struct {
	plan   *core.Plan
	stats  core.Stats
	simSec float64
}

// planOnce is the planner half of planChange, shared with plan-128dev:
// build the target, align it, plan (through DiffPlan, which is
// GeneratePlan when prev does not apply), validate, and price.
func planOnce(tr *tracer, topo *cluster.Topology, prev *core.Plan, from *core.PTC, opts core.PlanOptions,
	build func() (*core.PTC, error)) (planned, error) {
	var (
		out planned
		to  *core.PTC
	)
	if _, err := tr.phase("parallel.build_ptc", func() (err error) { to, err = build(); return }); err != nil {
		return out, err
	}
	tr.run("core.align", func() { to = core.AlignDevices(from, to) })
	name := "core.generate_plan"
	if prev != nil && prev.From == from {
		name = "core.diff_plan"
	}
	if _, err := tr.phase(name, func() (err error) { out.plan, err = core.DiffPlan(prev, from, to, opts); return }); err != nil {
		return out, err
	}
	if _, err := tr.phase("core.validate", out.plan.Validate); err != nil {
		return out, fmt.Errorf("invalid plan: %w", err)
	}
	tr.run("core.stats", func() { out.stats = out.plan.Stats(topo) })
	tr.run("netsim.simulate", func() { out.simSec = netsim.Simulate(topo, out.plan.Flows(topo)).Seconds })
	return out, nil
}

// commit is jobRuntime.commitAttempt without chaos: apply, advance,
// re-checkpoint. It returns the transformer's stats of the apply.
func (r *jobRT) commit(ch *change) (transform.Stats, error) {
	tr := &transform.Transformer{Job: r.name, Stores: r.stores}
	if ch.storageOK {
		// As jobRuntime: a checkpoint that cannot be opened is not an
		// error here, it surfaces as a failed storage fetch.
		r.tr.run(spanCkptOpen, func() {
			if step, err := checkpoint.Latest(r.storage, r.name); err == nil {
				if rd, err := checkpoint.Open(r.storage, r.name, step); err == nil {
					tr.Storage = rd
					if r.tr != nil {
						tr.Storage = &tracedStorage{inner: rd, tr: r.tr}
					}
				}
			}
		})
	}
	var st transform.Stats
	if _, err := r.tr.phase(spanApply, func() (err error) {
		st, err = tr.ApplyContext(context.Background(), ch.plan)
		return
	}); err != nil {
		return st, fmt.Errorf("transform %s: %w", r.name, err)
	}
	r.ptc, r.cfg, r.alloc = ch.to, ch.cfg, ch.alloc
	r.step++
	if _, err := r.tr.phase(spanCkptSave, func() error {
		return checkpoint.Save(r.storage, r.name, r.step, r.ptc, r.stores)
	}); err != nil {
		return st, fmt.Errorf("checkpoint %s: %w", r.name, err)
	}
	return st, nil
}

// reconfigured is what one change request cost and moved.
type reconfigured struct {
	total     time.Duration
	plan      *core.Plan
	planStats core.Stats
	stats     transform.Stats
}

// reconfigure is one change request from plan to re-checkpointed
// layout: the span reconfig_s measures.
func (r *jobRT) reconfigure(cfg parallel.Config, alloc cluster.Allocation, failed []cluster.DeviceID) (reconfigured, error) {
	var out reconfigured
	var err error
	out.total, err = r.tr.phase(spanReconfig, func() error {
		ch, _, err := r.planChange(cfg, alloc, failed)
		if err != nil {
			return err
		}
		out.plan, out.planStats = ch.plan, ch.stats
		out.stats, err = r.commit(ch)
		return err
	})
	return out, err
}

// verify is jobRuntime.verifyState: reassemble and compare bit for bit.
func (r *jobRT) verify(init map[core.TensorID]*tensor.Tensor) (time.Duration, error) {
	return r.tr.phase(spanVerify, func() error {
		var got map[core.TensorID]*tensor.Tensor
		if _, err := r.tr.phase(spanReadPTC, func() (err error) {
			got, err = transform.ReadPTC(r.name, r.ptc, r.stores)
			return
		}); err != nil {
			return fmt.Errorf("read state of %s: %w", r.name, err)
		}
		_, err := r.tr.phase(spanEqual, func() error {
			for id, want := range init {
				t, ok := got[id]
				if !ok {
					return fmt.Errorf("%s lost tensor %s", r.name, id)
				}
				if !t.Equal(want) {
					return fmt.Errorf("%s corrupted tensor %s", r.name, id)
				}
			}
			return nil
		})
		return err
	})
}
