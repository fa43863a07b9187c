package model

import (
	"strings"
	"testing"

	"tenplex/internal/tensor"
)

// layer returns m's layer of the given name.
func layer(m *Model, name string) (Layer, bool) {
	for _, l := range m.Layers {
		if l.Name == name {
			return l, true
		}
	}
	return Layer{}, false
}

// paramCountNear asserts a catalog is within tol (relative) of the
// published parameter count.
func paramCountNear(t *testing.T, m *Model, want float64, tol float64) {
	t.Helper()
	got := float64(m.NumParams())
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Fatalf("%s: %e params, want %e ± %.0f%%", m.Name, got, want, tol*100)
	}
}

func TestGPT3ParamCounts(t *testing.T) {
	paramCountNear(t, GPT3XL(), 1.3e9, 0.05)
	paramCountNear(t, GPT3_2B7(), 2.7e9, 0.05)
	paramCountNear(t, GPT3_6B7(), 6.7e9, 0.05)
}

func TestBERTLargeParamCount(t *testing.T) {
	paramCountNear(t, BERTLarge(), 340e6, 0.05)
}

func TestResNet50ParamCount(t *testing.T) {
	paramCountNear(t, ResNet50(), 25.6e6, 0.03)
}

func TestGPTBySize(t *testing.T) {
	for _, s := range []string{"1.3B", "xl", "2.7B", "6.7b"} {
		if _, err := GPTBySize(s); err != nil {
			t.Errorf("GPTBySize(%q): %v", s, err)
		}
	}
	if _, err := GPTBySize("175B"); err == nil {
		t.Error("GPTBySize accepted unknown size")
	}
}

func TestGPTLayerStructure(t *testing.T) {
	m := GPTCustom(4, 32, 4, 100, 16)
	if len(m.Layers) != 6 { // embedding + 4 blocks + final
		t.Fatalf("layer count %d", len(m.Layers))
	}
	if m.Layers[0].Name != "embedding" || m.Layers[5].Name != "final" {
		t.Fatalf("layer names: %s ... %s", m.Layers[0].Name, m.Layers[5].Name)
	}
	blk, ok := layer(m, "block.2")
	if !ok {
		t.Fatal("block.2 missing")
	}
	byName := map[string]Param{}
	for _, p := range blk.Params {
		byName[p.Name] = p
	}
	qkv := byName["attn/qkv/weight"]
	if !tensor.ShapeEqual(qkv.Shape, []int{96, 32}) || qkv.TPDim != 0 {
		t.Fatalf("qkv = %+v", qkv)
	}
	proj := byName["attn/proj/weight"]
	if !tensor.ShapeEqual(proj.Shape, []int{32, 32}) || proj.TPDim != 1 {
		t.Fatalf("proj = %+v", proj)
	}
	if byName["ln1/weight"].TPDim != NoTP {
		t.Fatal("layer norm must be replicated under TP")
	}
	if byName["mlp/fc1/bias"].TPDim != 0 {
		t.Fatal("column-parallel bias must slice dim 0")
	}
	if byName["mlp/fc2/bias"].TPDim != NoTP {
		t.Fatal("row-parallel bias must replicate")
	}
}

func TestTPSliceDimsDivisible(t *testing.T) {
	// Every TP-slicable dimension must divide cleanly by common TP
	// degrees for the paper's models.
	for _, m := range []*Model{GPT3XL(), GPT3_2B7(), GPT3_6B7(), BERTLarge()} {
		for _, lp := range m.StateParams() {
			p := lp.Param
			if p.TPDim == NoTP {
				continue
			}
			for _, tp := range []int{2, 4, 8} {
				if p.Shape[p.TPDim]%tp != 0 && !strings.HasPrefix(p.Name, "word") {
					t.Errorf("%s %s: dim %d size %d not divisible by %d",
						m.Name, lp.Path(), p.TPDim, p.Shape[p.TPDim], tp)
				}
			}
		}
	}
}

func TestStateBytesWithOptimizer(t *testing.T) {
	m := GPTCustom(2, 16, 2, 64, 8)
	plain := m.StateBytes()
	if plain != m.ParamBytes() {
		t.Fatal("no-optimizer state should equal param bytes")
	}
	adam := m.WithAdam()
	want := m.ParamBytes() + 2*m.NumParams()*4
	if adam.StateBytes() != want {
		t.Fatalf("adam state bytes = %d, want %d", adam.StateBytes(), want)
	}
	if m.OptimizerStates != 0 {
		t.Fatal("WithAdam mutated the receiver")
	}
}

func TestStateParamsEnumeration(t *testing.T) {
	m := GPTCustom(2, 16, 2, 64, 8).WithAdam()
	lps := m.StateParams()
	// Every param contributes itself + 2 optimizer tensors.
	var plain, opt int
	seen := map[string]bool{}
	for _, lp := range lps {
		if seen[lp.Path()] {
			t.Fatalf("duplicate path %s", lp.Path())
		}
		seen[lp.Path()] = true
		if strings.Contains(lp.Param.Name, ".opt") {
			opt++
			if lp.Param.DType != tensor.Float32 {
				t.Fatal("optimizer dtype wrong")
			}
		} else {
			plain++
		}
	}
	if opt != 2*plain {
		t.Fatalf("optimizer tensors %d, params %d", opt, plain)
	}
	if !seen["block.1/mlp/fc1/weight.opt1"] {
		t.Fatal("expected optimizer path missing")
	}
}

func TestFLOPsPositiveAndBalanced(t *testing.T) {
	for _, m := range []*Model{GPT3XL(), BERTLarge(), ResNet50()} {
		total := m.FLOPsPerSample()
		if total <= 0 {
			t.Fatalf("%s: non-positive FLOPs", m.Name)
		}
		for _, l := range m.Layers {
			if l.FLOPsPerSample < 0 {
				t.Fatalf("%s/%s: negative FLOPs", m.Name, l.Name)
			}
		}
	}
	// Transformer blocks dominate compute.
	m := GPT3XL()
	blk, _ := layer(m, "block.0")
	if blk.FLOPsPerSample*float64(24) < 0.8*m.FLOPsPerSample() {
		t.Fatal("blocks should dominate GPT compute")
	}
}

func TestResNetLayerCount(t *testing.T) {
	m := ResNet50()
	// stem + 3+4+6+3 bottlenecks + fc = 18 layers
	if len(m.Layers) != 18 {
		t.Fatalf("resnet layers = %d", len(m.Layers))
	}
	for _, lp := range m.StateParams() {
		if lp.Param.TPDim != NoTP {
			t.Fatalf("resnet param %s should be TP-replicated", lp.Path())
		}
	}
}

func TestModelStateBytesScale(t *testing.T) {
	// GPT-3 6.7B in fp32 ≈ 26.8 GB of parameters.
	m := GPT3_6B7()
	gb := float64(m.ParamBytes()) / 1e9
	if gb < 25 || gb > 29 {
		t.Fatalf("6.7B fp32 params = %.1f GB, want ≈ 26.8", gb)
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"gpt heads":  func() { GPT(GPTConfig{Layers: 1, Hidden: 10, Heads: 3, Vocab: 10, SeqLen: 4, DType: tensor.Float32}) },
		"gpt layers": func() { GPT(GPTConfig{Layers: 0, Hidden: 8, Heads: 2, Vocab: 10, SeqLen: 4, DType: tensor.Float32}) },
		"bert":       func() { BERT(0, 8, 2, 10, 4, "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
