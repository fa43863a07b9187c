package parallel

import (
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/tensor"
)

// firstN returns an allocation of devices 0..n-1.
func firstN(n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(i)
	}
	return out
}

func testModel() *model.Model { return model.GPTCustom(4, 32, 4, 96, 16) }

func TestBuildPTCValidatesEveryConfig(t *testing.T) {
	m := testModel()
	for _, n := range []int{1, 2, 4, 8} {
		for _, cfg := range Enumerate(n, 8, 4) {
			ptc, err := BuildPTC(m, cfg, firstN(n))
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, cfg, err)
			}
			if err := ptc.Validate(); err != nil {
				t.Fatalf("n=%d %v: invalid PTC: %v", n, cfg, err)
			}
			if len(ptc.Devices) != n {
				t.Fatalf("n=%d %v: %d devices", n, cfg, len(ptc.Devices))
			}
		}
	}
}

func TestBuildPTCRejectsBadConfig(t *testing.T) {
	m := testModel()
	if _, err := BuildPTC(m, Config{TP: 2, PP: 2, DP: 2}, firstN(4)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := BuildPTC(m, Config{TP: 1, PP: 7, DP: 1}, firstN(7)); err == nil {
		t.Fatal("PP > layers accepted")
	}
}

func TestBuildPTCTensorParallelSlicing(t *testing.T) {
	m := testModel() // hidden 32: qkv weight [96, 32]
	cfg := Config{TP: 2, PP: 1, DP: 1}
	ptc, err := BuildPTC(m, cfg, firstN(2))
	if err != nil {
		t.Fatal(err)
	}
	id := core.TensorID("block.0/attn/qkv/weight")
	slices := ptc.Slices(id)
	if len(slices) != 2 {
		t.Fatalf("qkv slices = %v", slices)
	}
	if !slices[0].Equal(tensor.Region{{Lo: 0, Hi: 48}, {Lo: 0, Hi: 32}}) ||
		!slices[1].Equal(tensor.Region{{Lo: 48, Hi: 96}, {Lo: 0, Hi: 32}}) {
		t.Fatalf("qkv sliced wrongly: %v", slices)
	}
	// Row-parallel proj slices dim 1.
	proj := ptc.Slices(core.TensorID("block.0/attn/proj/weight"))
	if !proj[0].Equal(tensor.Region{{Lo: 0, Hi: 32}, {Lo: 0, Hi: 16}}) {
		t.Fatalf("proj sliced wrongly: %v", proj)
	}
	// Layer norm replicated: single full slice held by both devices.
	ln := core.TensorID("block.0/ln1/weight")
	if got := ptc.Slices(ln); len(got) != 1 {
		t.Fatalf("ln slices = %v", got)
	}
	if h := ptc.Holders(ln, tensor.FullRegion([]int{32})); len(h) != 2 {
		t.Fatalf("ln holders = %v", h)
	}
}

func TestBuildPTCPipelineAssignsDisjointLayers(t *testing.T) {
	m := testModel() // 6 layers
	cfg := Config{TP: 1, PP: 2, DP: 1}
	ptc, err := BuildPTC(m, cfg, firstN(2))
	if err != nil {
		t.Fatal(err)
	}
	layerOf := func(id core.TensorID) string {
		return strings.SplitN(string(id), "/", 2)[0]
	}
	l0, l1 := map[string]bool{}, map[string]bool{}
	for _, s := range ptc.Place[0] {
		l0[layerOf(s.Tensor)] = true
	}
	for _, s := range ptc.Place[1] {
		l1[layerOf(s.Tensor)] = true
	}
	for l := range l0 {
		if l1[l] {
			t.Fatalf("layer %s on both pipeline stages", l)
		}
	}
	if !l0["embedding"] || !l1["final"] {
		t.Fatalf("stage contents: %v | %v", l0, l1)
	}
}

func TestBuildPTCDataParallelReplicates(t *testing.T) {
	m := testModel()
	cfg := Config{TP: 1, PP: 1, DP: 2}
	ptc, err := BuildPTC(m, cfg, firstN(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ptc.Place[0]) != len(ptc.Place[1]) {
		t.Fatal("replicas differ in size")
	}
	for i := range ptc.Place[0] {
		a, b := ptc.Place[0][i], ptc.Place[1][i]
		if a.Tensor != b.Tensor || !a.Region.Equal(b.Region) {
			t.Fatalf("replica divergence at %d: %v vs %v", i, a, b)
		}
	}
	if ptc.DeviceBytes(0) != ptc.DeviceBytes(1) {
		t.Fatal("replica byte counts differ")
	}
}

func TestBuildPTCBytesConservation(t *testing.T) {
	// Without replication (DP=1) and TP cutting every slicable tensor,
	// total placed bytes must equal total model bytes exactly when no
	// tensor is replicated across TP... layer norms are, so placed >=
	// model bytes, and placed == model bytes when TP == 1.
	m := testModel()
	ptc, err := BuildPTC(m, Config{TP: 1, PP: 2, DP: 1}, firstN(2))
	if err != nil {
		t.Fatal(err)
	}
	if ptc.TotalPlacedBytes() != m.ParamBytes() {
		t.Fatalf("placed %d bytes, model %d", ptc.TotalPlacedBytes(), m.ParamBytes())
	}
	// With DP=3 total placed bytes triple.
	ptc3, err := BuildPTC(m, Config{TP: 1, PP: 2, DP: 3}, firstN(6))
	if err != nil {
		t.Fatal(err)
	}
	if ptc3.TotalPlacedBytes() != 3*m.ParamBytes() {
		t.Fatalf("DP=3 placed %d, want %d", ptc3.TotalPlacedBytes(), 3*m.ParamBytes())
	}
}

func TestBuildPTCWithOptimizerState(t *testing.T) {
	m := testModel().WithAdam()
	ptc, err := BuildPTC(m, Config{TP: 2, PP: 1, DP: 1}, firstN(2))
	if err != nil {
		t.Fatal(err)
	}
	// Optimizer tensors follow their parameter's slicing.
	w := ptc.Slices(core.TensorID("block.1/mlp/fc1/weight"))
	o := ptc.Slices(core.TensorID("block.1/mlp/fc1/weight.opt0"))
	if len(w) != len(o) {
		t.Fatalf("optimizer slicing differs: %v vs %v", w, o)
	}
	for i := range w {
		if !w[i].Equal(o[i]) {
			t.Fatalf("optimizer slice %d differs", i)
		}
	}
}

func TestSmallTensorReplicatedUnderWideTP(t *testing.T) {
	// A model with a dimension smaller than TP must replicate rather
	// than produce empty slices.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	ptc, err := BuildPTC(m, Config{TP: 8, PP: 1, DP: 1}, firstN(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := ptc.Validate(); err != nil {
		t.Fatal(err)
	}
	// position embedding has shape [8, 16]; TPDim NoTP => replicated.
	if got := ptc.Slices(core.TensorID("embedding/position/weight")); len(got) != 1 {
		t.Fatalf("position embedding slices = %v", got)
	}
}
