package train

import (
	"math"
	"testing"

	"tenplex/internal/tensor"
)

func newSmallTask() *Task { return NewTask(8, 4, 4096, 11) }

// loss runs a full forward pass and returns the batch loss only.
func loss(state map[string]*tensor.Tensor, x *tensor.Tensor, labels []int) float64 {
	_, logits := Forward(state, x)
	l, _ := SoftmaxCE(logits, labels)
	return l
}

// cloneState deep-copies a state map.
func cloneState(state map[string]*tensor.Tensor) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(state))
	for k, v := range state {
		out[k] = v.Clone()
	}
	return out
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

// mergeShards reassembles full state from TP shards, the inverse of
// ShardState: the reference sharded training is compared against.
func mergeShards(shards []*TPShard) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	for _, suffix := range []string{"", ".opt0"} {
		for name, dim := range map[string]int{"fc1/weight": 0, "fc1/bias": 0, "fc2/weight": 1} {
			full := shards[0].State[name+suffix].Shape()
			full[dim] = 0
			for _, s := range shards {
				full[dim] += s.State[name+suffix].Dim(dim)
			}
			t := tensor.New(shards[0].State[name+suffix].DType(), full...)
			for _, s := range shards {
				reg := tensor.FullRegion(full)
				reg[dim] = tensor.Range{Lo: s.Lo, Hi: s.Hi}
				if _, err := tensor.CopyRegion(t, reg, s.State[name+suffix], tensor.FullRegion(s.State[name+suffix].Shape())); err != nil {
					panic(err)
				}
			}
			out[name+suffix] = t
		}
		out["fc2/bias"+suffix] = shards[0].State["fc2/bias"+suffix].Clone()
	}
	return out
}

func TestTaskDeterministic(t *testing.T) {
	tk := newSmallTask()
	a := tk.Features([]int{3, 99})
	b := tk.Features([]int{3, 99})
	if !a.Equal(b) {
		t.Fatal("features not deterministic")
	}
	la := tk.Labels([]int{3, 99})
	lb := tk.Labels([]int{3, 99})
	if la[0] != lb[0] || la[1] != lb[1] {
		t.Fatal("labels not deterministic")
	}
	// Labels cover multiple classes over a large batch.
	ids := make([]int, 256)
	for i := range ids {
		ids[i] = i
	}
	seen := map[int]bool{}
	for _, l := range tk.Labels(ids) {
		seen[l] = true
	}
	if len(seen) < 2 {
		t.Fatal("degenerate task: single class")
	}
}

func TestSoftmaxCE(t *testing.T) {
	// Uniform logits: loss = log(C); gradient rows sum to 0.
	logits := tensor.New(tensor.Float64, 2, 4)
	loss, dl := SoftmaxCE(logits, []int{1, 2})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("uniform loss = %v, want ln4", loss)
	}
	for r := 0; r < 2; r++ {
		var s float64
		for c := 0; c < 4; c++ {
			s += dl.Float64At(r, c)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("gradient row %d sums to %v", r, s)
		}
	}
	// Perfect prediction → tiny loss.
	confident := tensor.New(tensor.Float64, 1, 4)
	confident.SetFloat64(30, 0, 0)
	l2, _ := SoftmaxCE(confident, []int{0})
	if l2 > 1e-10 {
		t.Fatalf("confident loss = %v", l2)
	}
}

// TestGradientsNumerically verifies Backward against finite differences.
func TestGradientsNumerically(t *testing.T) {
	tk := NewTask(5, 3, 100, 2)
	cat := MLPCatalog(5, 6, 3)
	state := InitState(cat, 3)
	ids := []int{0, 1, 2, 3}
	x := tk.Features(ids)
	labels := tk.Labels(ids)

	h, logits := Forward(state, x)
	_, dl := SoftmaxCE(logits, labels)
	grads := Backward(state, x, h, dl)

	const eps = 1e-6
	for _, name := range []string{"fc1/weight", "fc1/bias", "fc2/weight", "fc2/bias"} {
		w := state[name]
		g := grads[name]
		// Probe a handful of coordinates.
		n := w.NumElems()
		for _, flat := range []int{0, n / 2, n - 1} {
			idx := flatToIdx(flat, w.Shape())
			orig := w.Float64At(idx...)
			w.SetFloat64(orig+eps, idx...)
			lPlus := loss(state, x, labels)
			w.SetFloat64(orig-eps, idx...)
			lMinus := loss(state, x, labels)
			w.SetFloat64(orig, idx...)
			numeric := (lPlus - lMinus) / (2 * eps)
			analytic := g.Float64At(idx...)
			if math.Abs(numeric-analytic) > 1e-6*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%v]: analytic %v vs numeric %v", name, idx, analytic, numeric)
			}
		}
	}
}

func flatToIdx(flat int, shape []int) []int {
	idx := make([]int, len(shape))
	for i := len(shape) - 1; i >= 0; i-- {
		idx[i] = flat % shape[i]
		flat /= shape[i]
	}
	return idx
}

func TestTrainingConverges(t *testing.T) {
	tk := newSmallTask()
	tr := NewTrainer(tk, 32, 0.3, 0.9, 64, 1, 5)
	tr.Run(150)
	first := avg(tr.Losses[:10])
	last := avg(tr.Losses[len(tr.Losses)-10:])
	if last >= first*0.7 {
		t.Fatalf("no convergence: first %v, last %v", first, last)
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestDPDegreesEquivalent: with a fixed global batch, training with
// DP=1, 2 or 4 performs the same computation.
func TestDPDegreesEquivalent(t *testing.T) {
	tk := newSmallTask()
	ref := NewTrainer(tk, 16, 0.2, 0.9, 32, 1, 7)
	ref.Run(30)
	for _, dp := range []int{2, 4} {
		tr := NewTrainer(tk, 16, 0.2, 0.9, 32, dp, 7)
		tr.Run(30)
		if !stateClose(ref.State, tr.State, 1e-9) {
			t.Fatalf("DP=%d diverges from DP=1", dp)
		}
		for i := range ref.Losses {
			if math.Abs(ref.Losses[i]-tr.Losses[i]) > 1e-9 {
				t.Fatalf("DP=%d loss %d differs: %v vs %v", dp, i, tr.Losses[i], ref.Losses[i])
			}
		}
	}
}

// TestRescaleConsistentMatchesStatic is Fig. 16a in miniature: changing
// DP mid-run with consistent policies leaves the loss curve unchanged.
func TestRescaleConsistentMatchesStatic(t *testing.T) {
	tk := newSmallTask()
	static := NewTrainer(tk, 16, 0.2, 0.9, 32, 2, 7)
	static.Run(40)

	dyn := NewTrainer(tk, 16, 0.2, 0.9, 32, 2, 7)
	dyn.Run(15)
	dyn.Rescale(4) // scale out
	dyn.Run(10)
	dyn.Rescale(1) // scale in
	dyn.Run(15)

	if !stateClose(static.State, dyn.State, 1e-9) {
		t.Fatal("consistent rescaling changed the final state")
	}
	for i := range static.Losses {
		if math.Abs(static.Losses[i]-dyn.Losses[i]) > 1e-9 {
			t.Fatalf("loss %d differs after rescale: %v vs %v", i, dyn.Losses[i], static.Losses[i])
		}
	}
}

// TestRestartEpochOverfits is Fig. 2a in miniature: rewinding the epoch
// after a scale-out consumes repeated samples and drops the training
// loss below the consistent run (overfitting).
func TestRestartEpochOverfits(t *testing.T) {
	// The overfit shows up right after the scaling event: the rewound
	// run re-reads samples it already trained on, so its training loss
	// drops below the consistent run's, which sees fresh data.
	tk := NewTask(8, 4, 1024, 11)
	tk.NoiseFrac = 0.25 // memorizable noise, as in over-parameterized LMs
	run := func(policy DataPolicy) *Trainer {
		tr := NewTrainer(tk, 64, 0.3, 0.9, 64, 2, 7)
		tr.DataPolicy = policy
		tr.Run(24) // 1.5 epochs: the current epoch is half consumed
		tr.Rescale(4)
		tr.Run(8)
		return tr
	}
	consistent := run(ResumePosition)
	rewind := run(RestartEpoch)

	cAfter := avg(consistent.Losses[24:32])
	rAfter := avg(rewind.Losses[24:32])
	if rAfter >= cAfter {
		t.Fatalf("epoch restart should overfit (lower train loss right after the event): consistent %v, rewind %v", cAfter, rAfter)
	}
}

// TestKeepDeviceBatchDiverges is Fig. 2b in miniature: holding the
// device batch while scaling out (with naive linear LR scaling) makes
// the loss worse than the consistent run.
func TestKeepDeviceBatchDiverges(t *testing.T) {
	tk := newSmallTask()
	lr := 1.05 // near the stability edge
	consistent := NewTrainer(tk, 32, lr, 0.9, 32, 2, 7)
	consistent.Run(10)
	consistent.Rescale(4)
	consistent.Run(40)

	naive := NewTrainer(tk, 32, lr, 0.9, 32, 2, 7)
	naive.BatchPolicy = KeepDeviceBatch
	naive.DeviceBatch = 16
	naive.Run(10)
	naive.Rescale(4) // LR doubles
	naive.Run(40)

	cLast := avg(consistent.Losses[len(consistent.Losses)-10:])
	nLast := avg(naive.Losses[len(naive.Losses)-10:])
	if nLast <= cLast*1.05 {
		t.Fatalf("inconsistent batch policy should hurt: consistent %v, naive %v", cLast, nLast)
	}
}

// TestTPStepMatchesUnsharded verifies the Megatron decomposition: TP=2
// and TP=4 sharded steps produce the same parameters as unsharded
// training (up to float re-association).
func TestTPStepMatchesUnsharded(t *testing.T) {
	tk := newSmallTask()
	cat := MLPCatalog(tk.In, 16, tk.Classes)
	for _, tp := range []int{2, 4} {
		full := InitState(cat, 9)
		shards := ShardState(cloneState(full), tp)

		cur := Cursor{}
		_ = cur
		ids := []int{5, 17, 33, 60, 101, 7, 8, 9}
		x := tk.Features(ids)
		labels := tk.Labels(ids)
		for step := 0; step < 5; step++ {
			// Unsharded reference step.
			h, logits := Forward(full, x)
			_, dl := SoftmaxCE(logits, labels)
			SGDUpdate(full, Backward(full, x, h, dl), 0.1, 0.9)
			// Sharded step.
			TPStep(shards, x, labels, 0.1, 0.9)
		}
		merged := mergeShards(shards)
		if !stateClose(full, merged, 1e-9) {
			t.Fatalf("TP=%d diverges from unsharded", tp)
		}
	}
}

// Cursor is a local alias to avoid importing dataset in this test file.
type Cursor struct{}

func TestShardMergeRoundTrip(t *testing.T) {
	cat := MLPCatalog(8, 12, 4)
	full := InitState(cat, 1)
	for _, tp := range []int{1, 2, 3, 4} {
		merged := mergeShards(ShardState(full, tp))
		if !stateClose(full, merged, 0) {
			t.Fatalf("shard/merge roundtrip failed for tp=%d", tp)
		}
	}
}

func TestInitStateMomentumZero(t *testing.T) {
	cat := MLPCatalog(4, 6, 3)
	st := InitState(cat, 1)
	for name, tns := range st {
		if isOptState(name) {
			for _, v := range tns.Float64s() {
				if v != 0 {
					t.Fatalf("momentum %s not zero-initialized", name)
				}
			}
		}
	}
	if len(st) != 8 { // 4 params + 4 momentum
		t.Fatalf("state has %d tensors", len(st))
	}
}
