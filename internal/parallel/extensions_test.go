package parallel

import (
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/tensor"
)

func TestMoECatalog(t *testing.T) {
	m := model.MoECustom(2, 16, 4)
	if m.NumExperts() != 4 {
		t.Fatalf("experts = %d", m.NumExperts())
	}
	// Dense GPT has no experts.
	if model.GPTCustom(2, 16, 2, 64, 8).NumExperts() != 0 {
		t.Fatal("dense model reports experts")
	}
	// Expert params are flagged; router is not.
	blk := m.Layers[1]
	if blk.Name != "block.0" {
		t.Fatalf("layer 1 is %q, want block.0", blk.Name)
	}
	var expertParams, routers int
	for _, p := range blk.Params {
		if p.IsExpert {
			expertParams++
		}
		if strings.HasPrefix(p.Name, "router/") {
			routers++
			if p.IsExpert {
				t.Fatal("router flagged as expert")
			}
		}
	}
	if expertParams != 4*4 || routers != 1 {
		t.Fatalf("expert params %d, routers %d", expertParams, routers)
	}
}

func TestBuildMoEPTCGroupsExperts(t *testing.T) {
	m := model.MoECustom(2, 16, 4)
	cfg := MoEConfig{EP: 2, DP: 1}
	ptc, err := BuildMoEPTC(m, cfg, firstN(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ptc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Experts 0,2 on device 0; experts 1,3 on device 1; attention
	// replicated on both.
	holdsExpert := func(dev int, e string) bool {
		for _, s := range ptc.Place[cluster.DeviceID(dev)] {
			if strings.Contains(string(s.Tensor), "expert."+e+"/") {
				return true
			}
		}
		return false
	}
	if !holdsExpert(0, "0") || !holdsExpert(0, "2") || holdsExpert(0, "1") {
		t.Fatal("device 0 expert grouping wrong")
	}
	if !holdsExpert(1, "1") || !holdsExpert(1, "3") || holdsExpert(1, "0") {
		t.Fatal("device 1 expert grouping wrong")
	}
	// σ is the identity: every slice is the full region.
	for id := range ptc.Tensors {
		for _, reg := range ptc.Slices(id) {
			if !reg.Equal(tensor.FullRegion(ptc.Tensors[id].Shape)) {
				t.Fatalf("EP sliced %s: %v", id, reg)
			}
		}
	}
	// Attention is replicated: both devices hold qkv.
	qkv := core.TensorID("block.0/attn/qkv/weight")
	if h := ptc.Holders(qkv, tensor.FullRegion(ptc.Tensors[qkv].Shape)); len(h) != 2 {
		t.Fatalf("qkv holders = %v", h)
	}
}

func TestBuildMoEPTCErrors(t *testing.T) {
	m := model.MoECustom(2, 16, 4)
	if _, err := BuildMoEPTC(m, MoEConfig{EP: 2, DP: 1}, firstN(4)); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := BuildMoEPTC(m, MoEConfig{EP: 8, DP: 1}, firstN(8)); err == nil {
		t.Fatal("EP > experts accepted")
	}
	dense := model.GPTCustom(2, 16, 2, 64, 8)
	if _, err := BuildMoEPTC(dense, MoEConfig{EP: 2, DP: 1}, firstN(2)); err == nil {
		t.Fatal("dense model accepted for EP")
	}
}

// TestMoEReconfiguration: growing EP 2 -> 4 must move only the expert
// tensors that change owners — the PTC plan machinery handles the new
// strategy without modification.
func TestMoEReconfiguration(t *testing.T) {
	m := model.MoECustom(2, 16, 4)
	from, err := BuildMoEPTC(m, MoEConfig{EP: 2, DP: 1}, firstN(2))
	if err != nil {
		t.Fatal(err)
	}
	to, err := BuildMoEPTC(m, MoEConfig{EP: 4, DP: 1}, firstN(4))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	if st.Splits != 0 || st.Merges != 0 {
		t.Fatalf("EP reconfiguration must not split/merge: %+v", st)
	}
	if st.MovedBytes == 0 {
		t.Fatal("EP growth must move expert tensors")
	}
	// Moving 2 experts per block (1,3 to new homes) plus replicating
	// attention to 2 new devices; must be well below full state.
	if st.MovedBytes >= m.ParamBytes() {
		t.Fatalf("EP reconfig moved %d >= model %d", st.MovedBytes, m.ParamBytes())
	}
}
