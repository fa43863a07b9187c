package experiments

import (
	"context"
	"fmt"
	"math"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/train"
	"tenplex/internal/transform"
)

// fig16Series is one panel of Fig. 16: loss curves with and without a
// resource change at fig16EventStep, for one parallelism dimension. It
// is the one typed payload a figure keeps: TestFig16ConvergenceUnaffected
// walks the three curves step by step, which no cell holds.
type fig16Series struct {
	NoChange []float64
	Increase []float64
	Decrease []float64
}

// maxDeviation is the largest |loss difference| between the
// reconfigured runs and the static run.
func (s fig16Series) maxDeviation() float64 {
	var m float64
	for i, loss := range s.NoChange {
		m = max(m, math.Abs(loss-s.Increase[i]), math.Abs(loss-s.Decrease[i]))
	}
	return m
}

const (
	fig16Steps     = 200
	fig16EventStep = 100
	fig16Hidden    = 16
	fig16LR        = 0.2
	fig16Mom       = 0.9
	fig16Batch     = 32
)

// Fig16Convergence reproduces Fig. 16: a model trained with real state
// management — parameters and momentum live in Tensor Stores, and the
// resource change at step 100 executes a real PTC reconfiguration plan
// through the State Transformer — converges identically whether
// resources increase, decrease, or stay constant, for each of the data,
// pipeline and tensor parallelism dimensions.
func Fig16Convergence() Experiment {
	e := Experiment{
		ID:     "fig16",
		Title:  "Model convergence with reconfiguration at step 100",
		Labels: []string{"dim"},
		Columns: []Column{
			{"final-static", "final_static", "%.4f", 0}, {"final-increase", "final_increase", "%.4f", 0},
			{"final-decrease", "final_decrease", "%.4f", 0}, {"max-deviation", "max_deviation", "%.2e", 0},
		},
		Notes: notes(
			"paper: loss does not diverge when resources change under any dimension",
			"runs use the real Tensor Store + State Transformer reconfiguration path",
		),
	}
	for _, dim := range fig16Dims {
		e.Variants = append(e.Variants, variant(dim.name, []string{dim.name}, func() (Cells, error) {
			s := dim.series()
			last := fig16Steps - 1
			return Cells{Sim: map[string]float64{
				"final_static": s.NoChange[last], "final_increase": s.Increase[last], "final_decrease": s.Decrease[last],
				"max_deviation": s.maxDeviation(),
			}}, nil
		}))
	}
	return e
}

func fig16Task() *train.Task { return train.NewTask(8, 4, 4096, 21) }

// fig16Trainer trains with from's data-parallel degree and, at the event
// step, moves the state from from to to through the store path and
// rescales to to's degree, with consistent hyper-parameters and dataset
// position; from == to trains straight through. A pipeline change moves
// whole layer tensors between devices, so training must continue
// bit-identically after it.
func fig16Trainer(from, to parallel.Config) []float64 {
	tr := train.NewTrainer(fig16Task(), fig16Hidden, fig16LR, fig16Mom, fig16Batch, from.DP, 3)
	tr.Run(fig16EventStep)
	if from != to {
		roundTripState(tr, from, to)
		if to.DP != from.DP {
			tr.Rescale(to.DP)
		}
	}
	tr.Run(fig16Steps - fig16EventStep)
	return tr.Losses
}

// fig16Dims is Fig. 16's panels, the series of each dimension's change.
var fig16Dims = []struct {
	name   string
	series func() fig16Series
}{
	// The data-parallel degree 4 -> 8 / 4 -> 2, re-partitioning the
	// (replicated) state.
	{"data", func() fig16Series {
		dp := func(n int) parallel.Config { return parallel.Config{TP: 1, PP: 1, DP: n} }
		return fig16Series{NoChange: fig16Trainer(dp(4), dp(4)), Increase: fig16Trainer(dp(4), dp(8)), Decrease: fig16Trainer(dp(4), dp(2))}
	}},
	// The pipeline degree 1 -> 2 / 2 -> 1.
	{"pipeline", func() fig16Series {
		pp := func(n int) parallel.Config { return parallel.Config{TP: 1, PP: n, DP: 1} }
		return fig16Series{NoChange: fig16Trainer(pp(2), pp(2)), Increase: fig16Trainer(pp(1), pp(2)), Decrease: fig16Trainer(pp(2), pp(1))}
	}},
	{"tensor", fig16Tensor},
}

// roundTripState pushes the trainer's full state into per-device Tensor
// Stores under fromCfg, reconfigures to toCfg through a job.Runtime —
// plan, State Transformer and all — and reads the state back: the exact
// path a reconfigured job takes between training phases.
func roundTripState(tr *train.Trainer, fromCfg, toCfg parallel.Config) {
	cat := train.MLPCatalog(tr.Task.In, fig16Hidden, tr.Task.Classes)
	topo := cluster.OnPrem16()
	rt := &job.Runtime{Name: "fig16", Model: cat, Topo: topo, Stores: memStores(topo)}
	full := map[core.TensorID]*tensor.Tensor{}
	for name, t := range tr.State {
		full[core.TensorID(name)] = t
	}
	alloc := topo.FirstN(fromCfg.WorldSize())
	if err := rt.Deploy(buildPTC(cat, fromCfg, alloc), fromCfg, alloc, full); err != nil {
		panic(err)
	}
	ch := must(job.Plan(cat, topo, rt.PTC, toCfg, topo.FirstN(toCfg.WorldSize()), nil))
	if _, err := rt.Apply(context.TODO(), ch); err != nil {
		panic(err)
	}
	for id, t := range must(rt.State(context.TODO())) {
		tr.State[string(id)] = t
	}
}

// memStores is one in-memory Tensor Store per device of topo.
func memStores(topo *cluster.Topology) map[cluster.DeviceID]store.Access {
	stores := map[cluster.DeviceID]store.Access{}
	for _, d := range topo.Devices {
		stores[d.ID] = store.Local{FS: store.NewMemFS()}
	}
	return stores
}

// fig16Tensor changes the tensor-parallel degree 4 -> 8 / 4 -> 2: the
// trainer really executes Megatron-style sharded steps, and the change
// re-shards parameters and momentum through the plan + transformer.
func fig16Tensor() fig16Series {
	tk := fig16Task()
	cat := train.MLPCatalog(tk.In, fig16Hidden, tk.Classes)
	topo := cluster.OnPrem16()

	run := func(newTP int) []float64 {
		full := train.InitState(cat, 3)
		shards := train.ShardState(full, 4)
		cursor := train.NewTrainer(tk, fig16Hidden, fig16LR, fig16Mom, fig16Batch, 1, 3).Cursor

		var losses []float64
		step := func() {
			batch := cursor.NextBatch(tk.NumSamples, fig16Batch, 1)
			ids := batch[0].Samples
			x := tk.Features(ids)
			labels := tk.Labels(ids)
			losses = append(losses, train.TPStep(shards, x, labels, fig16LR, fig16Mom))
		}
		for i := 0; i < fig16EventStep; i++ {
			step()
		}
		if newTP != 4 {
			shards = reshardTP(topo, cat, shards, 4, newTP)
		}
		for i := fig16EventStep; i < fig16Steps; i++ {
			step()
		}
		return losses
	}
	return fig16Series{NoChange: run(4), Increase: run(8), Decrease: run(2)}
}

// reshardTP moves live TP shard state (parameters and momentum) through
// the real store + plan + State Transformer path from tp-way to
// newTP-way sharding, and rebuilds the shard structs from the new
// per-device Tensor Stores.
func reshardTP(topo *cluster.Topology, cat *model.Model, shards []*train.TPShard, tp, newTP int) []*train.TPShard {
	from := buildPTC(cat, parallel.Config{TP: tp, PP: 1, DP: 1}, topo.FirstN(tp))
	to := buildPTC(cat, parallel.Config{TP: newTP, PP: 1, DP: 1}, topo.FirstN(newTP))

	stores := memStores(topo)
	const job = "fig16-tp"
	// Each TP rank uploads its live shard tensors as the from-PTC's
	// sub-tensors.
	for i, d := range from.Devices {
		for _, sub := range from.Place[d] {
			t, ok := shards[i].State[string(sub.Tensor)]
			if !ok {
				panic(fmt.Sprintf("experiments: shard %d missing %s", i, sub.Tensor))
			}
			if err := stores[d].Upload(transform.ModelPath(job, d, sub.Tensor), t); err != nil {
				panic(err)
			}
		}
	}
	plan := must(core.GeneratePlan(from, to, core.PlanOptions{Topo: topo}))
	trx := &transform.Transformer{Job: job, Stores: stores}
	if _, err := trx.Apply(plan); err != nil {
		panic(err)
	}
	// Rebuild shards from the new placement.
	out := make([]*train.TPShard, newTP)
	for i, d := range to.Devices {
		st := map[string]*tensor.Tensor{}
		var lo, hi int
		for _, sub := range to.Place[d] {
			st[string(sub.Tensor)] = must(stores[d].Query(transform.ModelPath(job, d, sub.Tensor), nil))
			if sub.Tensor == "fc1/weight" {
				lo, hi = sub.Region[0].Lo, sub.Region[0].Hi
			}
		}
		out[i] = &train.TPShard{Lo: lo, Hi: hi, State: st}
	}
	return out
}
