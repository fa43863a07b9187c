package experiments

import (
	"context"
	"fmt"
	"math"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/train"
	"tenplex/internal/transform"
)

// Fig16Series is one panel of Fig. 16: loss curves with and without a
// resource change at the event step, for one parallelism dimension.
type Fig16Series struct {
	Dim       string // "data" | "pipeline" | "tensor"
	EventStep int
	NoChange  []float64
	Increase  []float64
	Decrease  []float64
	// MaxDeviation is the largest |loss difference| between the
	// reconfigured runs and the static run.
	MaxDeviation float64
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
func Fig16Convergence() ([]Fig16Series, Table) {
	series := []Fig16Series{
		fig16Data(),
		fig16Pipeline(),
		fig16Tensor(),
	}
	table := Table{
		ID:      "fig16",
		Title:   "Model convergence with reconfiguration at step 100",
		Columns: []string{"dim", "final-static", "final-increase", "final-decrease", "max-deviation"},
		Notes: []string{
			"paper: loss does not diverge when resources change under any dimension",
			"runs use the real Tensor Store + State Transformer reconfiguration path",
		},
	}
	for _, s := range series {
		table.Rows = append(table.Rows, []string{
			s.Dim,
			fmt.Sprintf("%.4f", s.NoChange[len(s.NoChange)-1]),
			fmt.Sprintf("%.4f", s.Increase[len(s.Increase)-1]),
			fmt.Sprintf("%.4f", s.Decrease[len(s.Decrease)-1]),
			fmt.Sprintf("%.2e", s.MaxDeviation),
		})
	}
	return series, table
}

func fig16Task() *train.Task { return train.NewTask(8, 4, 4096, 21) }

func maxDev(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// fig16Data changes the data-parallel degree 4 -> 8 / 4 -> 2 with
// consistent hyper-parameters and dataset position, re-partitioning the
// (replicated) state through the store path.
func fig16Data() Fig16Series {
	run := func(newDP int) []float64 {
		tr := train.NewTrainer(fig16Task(), fig16Hidden, fig16LR, fig16Mom, fig16Batch, 4, 3)
		tr.Run(fig16EventStep)
		if newDP != 4 {
			roundTripState(tr, parallel.Config{TP: 1, PP: 1, DP: 4}, parallel.Config{TP: 1, PP: 1, DP: newDP})
			tr.Rescale(newDP)
		}
		tr.Run(fig16Steps - fig16EventStep)
		return tr.Losses
	}
	s := Fig16Series{Dim: "data", EventStep: fig16EventStep,
		NoChange: run(4), Increase: run(8), Decrease: run(2)}
	s.MaxDeviation = math.Max(maxDev(s.NoChange, s.Increase), maxDev(s.NoChange, s.Decrease))
	return s
}

// fig16Pipeline changes the pipeline degree 1 -> 2 / 2 -> 1; pipeline
// repartitioning moves whole layer tensors between devices, so after
// the store round trip training must continue bit-identically.
func fig16Pipeline() Fig16Series {
	run := func(fromPP, toPP int) []float64 {
		tr := train.NewTrainer(fig16Task(), fig16Hidden, fig16LR, fig16Mom, fig16Batch, 1, 3)
		tr.Run(fig16EventStep)
		if fromPP != toPP {
			roundTripState(tr, parallel.Config{TP: 1, PP: fromPP, DP: 1}, parallel.Config{TP: 1, PP: toPP, DP: 1})
		}
		tr.Run(fig16Steps - fig16EventStep)
		return tr.Losses
	}
	s := Fig16Series{Dim: "pipeline", EventStep: fig16EventStep,
		NoChange: run(2, 2), Increase: run(1, 2), Decrease: run(2, 1)}
	s.MaxDeviation = math.Max(maxDev(s.NoChange, s.Increase), maxDev(s.NoChange, s.Decrease))
	return s
}

// roundTripState pushes the trainer's full state into per-device Tensor
// Stores under fromCfg, reconfigures to toCfg through a job.Runtime —
// plan, State Transformer and all — and reads the state back: the exact
// path a reconfigured job takes between training phases.
func roundTripState(tr *train.Trainer, fromCfg, toCfg parallel.Config) {
	cat := train.MLPCatalog(tr.Task.In, fig16Hidden, tr.Task.Classes)
	topo := cluster.OnPrem16()
	rt := &job.Runtime{Name: "fig16", Model: cat, Topo: topo, Stores: map[cluster.DeviceID]store.Access{}}
	for _, d := range topo.Devices {
		rt.Stores[d.ID] = store.Local{FS: store.NewMemFS()}
	}
	full := map[core.TensorID]*tensor.Tensor{}
	for name, t := range tr.State {
		full[core.TensorID(name)] = t
	}
	alloc := topo.FirstN(fromCfg.WorldSize())
	if err := rt.Deploy(buildPTC(cat, fromCfg, alloc), fromCfg, alloc, full); err != nil {
		panic(err)
	}
	ch, err := job.Plan(cat, topo, rt.PTC, toCfg, topo.FirstN(toCfg.WorldSize()), nil)
	if err != nil {
		panic(err)
	}
	if _, err := rt.Apply(context.TODO(), ch); err != nil {
		panic(err)
	}
	back, err := rt.State(context.TODO())
	if err != nil {
		panic(err)
	}
	for id, t := range back {
		tr.State[string(id)] = t
	}
}

// fig16Tensor changes the tensor-parallel degree 4 -> 8 / 4 -> 2: the
// trainer really executes Megatron-style sharded steps, and the change
// re-shards parameters and momentum through the plan + transformer.
func fig16Tensor() Fig16Series {
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
			shards = reshardTP(topo, shards, 4, newTP)
		}
		for i := fig16EventStep; i < fig16Steps; i++ {
			step()
		}
		return losses
	}
	s := Fig16Series{Dim: "tensor", EventStep: fig16EventStep,
		NoChange: run(4), Increase: run(8), Decrease: run(2)}
	s.MaxDeviation = math.Max(maxDev(s.NoChange, s.Increase), maxDev(s.NoChange, s.Decrease))
	return s
}

// reshardTP moves live TP shard state (parameters and momentum) through
// the real store + plan + State Transformer path from tp-way to
// newTP-way sharding, and rebuilds the shard structs from the new
// per-device Tensor Stores.
func reshardTP(topo *cluster.Topology, shards []*train.TPShard, tp, newTP int) []*train.TPShard {
	tk := fig16Task()
	cat := train.MLPCatalog(tk.In, fig16Hidden, tk.Classes)
	from := buildPTC(cat, parallel.Config{TP: tp, PP: 1, DP: 1}, topo.FirstN(tp))
	to := buildPTC(cat, parallel.Config{TP: newTP, PP: 1, DP: 1}, topo.FirstN(newTP))

	stores := map[cluster.DeviceID]store.Access{}
	for _, d := range topo.Devices {
		stores[d.ID] = store.Local{FS: store.NewMemFS()}
	}
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
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		panic(err)
	}
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
			t, err := stores[d].Query(transform.ModelPath(job, d, sub.Tensor), nil)
			if err != nil {
				panic(err)
			}
			st[string(sub.Tensor)] = t
			if sub.Tensor == "fc1/weight" {
				lo, hi = sub.Region[0].Lo, sub.Region[0].Hi
			}
		}
		out[i] = &train.TPShard{Lo: lo, Hi: hi, State: st}
	}
	return out
}
