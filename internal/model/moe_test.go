package model

import (
	"testing"

	"tenplex/internal/tensor"
)

func TestMoECatalogShape(t *testing.T) {
	m := MoECustom(3, 32, 4)
	if m.NumExperts() != 4 {
		t.Fatalf("experts = %d", m.NumExperts())
	}
	if len(m.Layers) != 5 { // embedding + 3 blocks + final
		t.Fatalf("layers = %d", len(m.Layers))
	}
	blk, ok := layer(m, "block.1")
	if !ok {
		t.Fatal("block.1 missing")
	}
	var expert1 int
	for _, p := range blk.Params {
		if p.IsExpert && p.Expert == 1 {
			expert1++
			if p.Name[:11] != "mlp/expert." {
				t.Fatalf("expert param name %q", p.Name)
			}
		}
	}
	if expert1 != 4 { // fc1 w/b, fc2 w/b
		t.Fatalf("expert 1 has %d params", expert1)
	}
	// MoE parameter count: dense attention + E expert FFNs.
	if m.NumParams() <= BERTCustom(3, 32, 2, 128, 16).NumParams() {
		t.Fatal("MoE should carry more parameters than a dense peer")
	}
}

func TestMoEFullScale(t *testing.T) {
	m := MoE(MoEConfig{
		Name: "moe-8x", Layers: 12, Hidden: 768, Heads: 12,
		Experts: 8, Vocab: 50257, SeqLen: 1024,
	})
	// 8 experts × 12 layers × (2·4·768·768 + ...) dominates: ≈ 455M
	// expert params + dense trunk.
	if m.NumParams() < 400e6 {
		t.Fatalf("MoE params = %d, implausibly small", m.NumParams())
	}
	if m.ActElemsPerSample != 1024*768 {
		t.Fatalf("activation elems = %d", m.ActElemsPerSample)
	}
}

func TestMoEBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MoE(MoEConfig{Layers: 1, Hidden: 10, Heads: 3, Experts: 1, Vocab: 4, SeqLen: 4})
}

func TestTensorParallelizable(t *testing.T) {
	if !GPT3XL().TensorParallelizable() {
		t.Fatal("GPT must be TP-capable")
	}
	if ResNet50().TensorParallelizable() {
		t.Fatal("ResNet must not be TP-capable")
	}
}

func TestBERTCustomShape(t *testing.T) {
	m := BERTCustom(2, 16, 2, 64, 8)
	if len(m.Layers) != 4 { // embedding + 2 blocks + pooler
		t.Fatalf("layers = %d", len(m.Layers))
	}
	if m.SeqLen != 8 || m.ActElemsPerSample != 8*16 {
		t.Fatalf("seq/act: %d/%d", m.SeqLen, m.ActElemsPerSample)
	}
	if _, ok := layer(m, "pooler"); !ok {
		t.Fatal("pooler missing")
	}
	for _, lp := range m.StateParams() {
		if lp.Param.DType != tensor.Float32 {
			t.Fatalf("%s dtype %s", lp.Path(), lp.Param.DType)
		}
	}
}
