package train

import (
	"fmt"
	"math"

	"tenplex/internal/tensor"
)

// Gradients holds per-parameter gradients keyed by tensor path
// ("fc1/weight", ...).
type Gradients map[string]*tensor.Tensor

// Forward runs the MLP on x [B,In] with full (unsharded) parameters and
// returns hidden activations and logits.
func Forward(state map[string]*tensor.Tensor, x *tensor.Tensor) (h, logits *tensor.Tensor) {
	pre := tensor.AddRowVec(tensor.MatMulABT(x, state["fc1/weight"]), state["fc1/bias"])
	h = tensor.Apply(pre, math.Tanh)
	logits = tensor.AddRowVec(tensor.MatMulABT(h, state["fc2/weight"]), state["fc2/bias"])
	return h, logits
}

// SoftmaxCE returns the mean cross-entropy loss and dLoss/dLogits for a
// batch of integer labels.
func SoftmaxCE(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	shape := logits.Shape()
	b, c := shape[0], shape[1]
	if len(labels) != b {
		panic(fmt.Sprintf("train: %d labels for batch %d", len(labels), b))
	}
	dl := tensor.New(tensor.Float64, b, c)
	var loss float64
	for r := 0; r < b; r++ {
		// log-sum-exp with max subtraction for stability
		maxV := math.Inf(-1)
		for j := 0; j < c; j++ {
			if v := logits.Float64At(r, j); v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j := 0; j < c; j++ {
			sum += math.Exp(logits.Float64At(r, j) - maxV)
		}
		lse := maxV + math.Log(sum)
		loss += lse - logits.Float64At(r, labels[r])
		for j := 0; j < c; j++ {
			p := math.Exp(logits.Float64At(r, j)-maxV) / sum
			g := p / float64(b)
			if j == labels[r] {
				g -= 1 / float64(b)
			}
			dl.SetFloat64(g, r, j)
		}
	}
	return loss / float64(b), dl
}

// Backward computes gradients for the full MLP given the forward
// activations and dLogits.
func Backward(state map[string]*tensor.Tensor, x, h, dLogits *tensor.Tensor) Gradients {
	g := Gradients{}
	g["fc2/weight"] = tensor.MatMulATB(dLogits, h) // [C,H]
	g["fc2/bias"] = tensor.SumRows(dLogits)
	dh := tensor.MatMul(dLogits, state["fc2/weight"]) // [B,H]
	// tanh' = 1 - h^2
	dpre := tensor.Mul(dh, tensor.Apply(h, func(v float64) float64 { return 1 - v*v }))
	g["fc1/weight"] = tensor.MatMulATB(dpre, x) // [H,In]
	g["fc1/bias"] = tensor.SumRows(dpre)
	return g
}

// SGDUpdate applies one SGD-with-momentum step in place:
// v ← μ·v + g; w ← w − η·v. Momentum buffers are the ".opt0" tensors of
// the state map — real optimizer state that reconfigurations must carry.
func SGDUpdate(state map[string]*tensor.Tensor, grads Gradients, lr, momentum float64) {
	for name, g := range grads {
		w, ok := state[name]
		if !ok {
			panic(fmt.Sprintf("train: gradient for unknown parameter %q", name))
		}
		v, ok := state[name+".opt0"]
		if !ok {
			panic(fmt.Sprintf("train: no momentum buffer for %q", name))
		}
		v.ScaleInPlace(momentum)
		v.AddScaledInPlace(1, g)
		w.AddScaledInPlace(-lr, v)
	}
}

// --- tensor-parallel execution ----------------------------------------

// TPShard holds one tensor-parallel rank's slice of the MLP: rows
// [lo,hi) of fc1 (column parallelism) and the matching columns of fc2
// (row parallelism). fc2/bias is replicated and updated identically on
// every shard.
type TPShard struct {
	Lo, Hi int // hidden-dimension range
	State  map[string]*tensor.Tensor
}

// ShardState cuts full state into tp TPShards along the hidden
// dimension, momentum buffers included — exactly the slicing σ the
// parallel package would produce for MLPCatalog.
func ShardState(full map[string]*tensor.Tensor, tp int) []*TPShard {
	hidden := full["fc1/weight"].Dim(0)
	ranges := tensor.SplitRanges(hidden, tp)
	shards := make([]*TPShard, tp)
	for s, r := range ranges {
		st := map[string]*tensor.Tensor{}
		for _, name := range []string{"fc1/weight", "fc1/bias", "fc2/weight", "fc2/bias"} {
			for _, suffix := range []string{"", ".opt0"} {
				t := full[name+suffix]
				reg := tensor.FullRegion(t.Shape())
				switch name {
				case "fc1/weight", "fc1/bias":
					reg[0] = r
				case "fc2/weight":
					reg[1] = r
				}
				st[name+suffix] = t.Slice(reg)
			}
		}
		shards[s] = &TPShard{Lo: r.Lo, Hi: r.Hi, State: st}
	}
	return shards
}

// TPStep executes one training step across tensor-parallel shards:
// every shard computes its hidden slice, partial logits are all-reduced
// (summed), the shared bias is added once, and each shard updates its
// own slice of the parameters. The math is the Megatron decomposition,
// so the result matches unsharded execution up to float re-association.
// Returns the batch loss.
func TPStep(shards []*TPShard, x *tensor.Tensor, labels []int, lr, momentum float64) float64 {
	b := x.Dim(0)
	classes := shards[0].State["fc2/weight"].Dim(0)

	// Forward: per-shard hidden slices and partial logits.
	hs := make([]*tensor.Tensor, len(shards))
	logits := tensor.New(tensor.Float64, b, classes)
	for i, s := range shards {
		pre := tensor.AddRowVec(tensor.MatMulABT(x, s.State["fc1/weight"]), s.State["fc1/bias"])
		hs[i] = tensor.Apply(pre, math.Tanh)
		logits = tensor.Add(logits, tensor.MatMulABT(hs[i], s.State["fc2/weight"]))
	}
	logits = tensor.AddRowVec(logits, shards[0].State["fc2/bias"])

	loss, dLogits := SoftmaxCE(logits, labels)

	// Backward + update per shard.
	db2 := tensor.SumRows(dLogits) // identical on every shard
	for i, s := range shards {
		g := Gradients{}
		g["fc2/weight"] = tensor.MatMulATB(dLogits, hs[i])
		g["fc2/bias"] = db2
		dh := tensor.MatMul(dLogits, s.State["fc2/weight"])
		dpre := tensor.Mul(dh, tensor.Apply(hs[i], func(v float64) float64 { return 1 - v*v }))
		g["fc1/weight"] = tensor.MatMulATB(dpre, x)
		g["fc1/bias"] = tensor.SumRows(dpre)
		SGDUpdate(s.State, g, lr, momentum)
	}
	return loss
}
