package tenplex

import (
	"math"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
	"tenplex/internal/tensor"
	"tenplex/internal/train"
)

// TestTrainingThroughJobLifecycle is the repository's flagship
// integration test: a real training loop (the mini DL system) runs its
// state *through* the public Job API — every few steps the state is
// externalized into the Tensor Stores, the scheduler changes the GPU
// allocation, Tenplex transforms the PTC, and training resumes from the
// re-partitioned state. The resulting loss trajectory must be
// bit-identical to an uninterrupted run: reconfiguration is invisible
// to convergence (the paper's central correctness claim).
func TestTrainingThroughJobLifecycle(t *testing.T) {
	const (
		hidden   = 16
		lr       = 0.2
		momentum = 0.9
		batch    = 32
		phase    = 25 // steps between scheduler events
	)
	task := train.NewTask(8, 4, 4096, 13)
	cat := train.MLPCatalog(task.In, hidden, task.Classes)

	// Reference: uninterrupted training.
	ref := train.NewTrainer(task, hidden, lr, momentum, batch, 1, 9)
	ref.Run(4 * phase)

	// Managed run: training state lives in the job between phases.
	perf := perfmodel.DefaultParams()
	perf.GlobalBatch = batch
	perf.DeviceMemGB = 0
	job, err := NewJob(JobConfig{
		Name: "integration", Model: cat, Topology: cluster.OnPrem16(), Perf: perf, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := train.NewTrainer(task, hidden, lr, momentum, batch, 1, 9)

	toPTCState := func() map[core.TensorID]*tensor.Tensor {
		out := map[core.TensorID]*tensor.Tensor{}
		for name, x := range tr.State {
			out[core.TensorID(name)] = x
		}
		return out
	}
	fromPTCState := func(in map[core.TensorID]*tensor.Tensor) {
		for id, x := range in {
			tr.State[string(id)] = x
		}
	}

	if err := job.DeployWith(parallel.Config{TP: 2, PP: 1, DP: 1},
		job.cfg.Topology.FirstN(2), toPTCState()); err != nil {
		t.Fatal(err)
	}

	schedule := []parallel.Config{
		{TP: 4, PP: 1, DP: 1}, // widen TP
		{TP: 2, PP: 2, DP: 2}, // multi-dimensional
		{TP: 1, PP: 2, DP: 1}, // shrink
	}
	for phaseIdx := 0; phaseIdx < 4; phaseIdx++ {
		tr.Run(phase)
		job.SetStep(tr.Step)
		if err := job.WriteState(toPTCState()); err != nil {
			t.Fatal(err)
		}
		if err := job.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if phaseIdx < len(schedule) {
			cfg := schedule[phaseIdx]
			rep, err := job.ReconfigureWith(cfg, job.cfg.Topology.FirstN(cfg.WorldSize()))
			if err != nil {
				t.Fatalf("phase %d: %v", phaseIdx, err)
			}
			if rep.SimulatedSec < 0 {
				t.Fatalf("phase %d: bad report %+v", phaseIdx, rep)
			}
			state, err := job.State()
			if err != nil {
				t.Fatal(err)
			}
			fromPTCState(state)
		}
	}

	if len(tr.Losses) != len(ref.Losses) {
		t.Fatalf("step counts differ: %d vs %d", len(tr.Losses), len(ref.Losses))
	}
	for i := range ref.Losses {
		if math.Abs(tr.Losses[i]-ref.Losses[i]) > 1e-12 {
			t.Fatalf("loss diverges at step %d: %v vs %v", i, tr.Losses[i], ref.Losses[i])
		}
	}
	if !stateClose(tr.State, ref.State, 1e-12) {
		t.Fatal("final parameters diverge from the uninterrupted run")
	}
}

// stateClose reports whether two state maps hold the same tensors, of
// the same shapes, within tol element by element.
func stateClose(a, b map[string]*tensor.Tensor, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || !tensor.ShapeEqual(av.Shape(), bv.Shape()) {
			return false
		}
		x, y := av.Float64s(), bv.Float64s()
		for i := range x {
			if math.Abs(x[i]-y[i]) > tol {
				return false
			}
		}
	}
	return true
}
