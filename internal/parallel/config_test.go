package parallel

import (
	"math"
	"testing"

	"tenplex/internal/model"
)

func TestConfigWorldSizeAndValidate(t *testing.T) {
	c := Config{TP: 2, PP: 4, DP: 2}
	if c.WorldSize() != 16 {
		t.Fatalf("world size %d", c.WorldSize())
	}
	m := model.GPTCustom(4, 32, 4, 100, 16)
	if err := c.Validate(16, m); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := c.Validate(8, m); err == nil {
		t.Fatal("wrong device count accepted")
	}
	if err := (Config{TP: 0, PP: 1, DP: 1}).Validate(0, m); err == nil {
		t.Fatal("zero degree accepted")
	}
	if err := (Config{TP: 1, PP: 7, DP: 1}).Validate(7, m); err == nil {
		t.Fatal("PP > layers accepted")
	}
}

func TestRankIndexRoundTrip(t *testing.T) {
	c := Config{TP: 2, PP: 3, DP: 4}
	seen := map[int]bool{}
	for dp := 0; dp < 4; dp++ {
		for pp := 0; pp < 3; pp++ {
			for tp := 0; tp < 2; tp++ {
				r := Rank{DP: dp, PP: pp, TP: tp}
				i := c.RankIndex(r)
				if seen[i] {
					t.Fatalf("rank index %d assigned twice", i)
				}
				seen[i] = true
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("covered %d of 24 ranks", len(seen))
	}
	// TP varies fastest.
	if c.RankIndex(Rank{0, 0, 1}) != 1 || c.RankIndex(Rank{0, 1, 0}) != 2 {
		t.Fatal("rank order is not TP-fastest")
	}
}

func TestRankPanics(t *testing.T) {
	c := Config{TP: 2, PP: 2, DP: 2}
	for name, f := range map[string]func(){
		"rank oob": func() { c.RankIndex(Rank{DP: 2, PP: 0, TP: 0}) },
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

func TestGroupEnumeration(t *testing.T) {
	c := Config{TP: 2, PP: 2, DP: 2}
	alloc := firstN(8)
	tp := c.TPGroup(alloc, 0, 0)
	if int(tp[0]) != 0 || int(tp[1]) != 1 {
		t.Fatalf("TPGroup(0,0) = %v", tp)
	}
	dp := c.DPGroup(alloc, 0, 0)
	if int(dp[0]) != 0 || int(dp[1]) != 4 {
		t.Fatalf("DPGroup = %v", dp)
	}
	pp := c.PPNeighbors(alloc, 0, 1)
	if int(pp[0]) != 1 || int(pp[1]) != 3 {
		t.Fatalf("PPNeighbors = %v", pp)
	}
}

func TestEnumerate(t *testing.T) {
	cfgs := Enumerate(16, 16, 8)
	if len(cfgs) == 0 {
		t.Fatal("no configurations")
	}
	seen := map[Config]bool{}
	for _, c := range cfgs {
		if c.WorldSize() != 16 {
			t.Fatalf("config %v does not use 16 devices", c)
		}
		if seen[c] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c] = true
	}
	for _, want := range []Config{{2, 4, 2}, {16, 1, 1}, {1, 1, 16}, {4, 2, 2}} {
		if !seen[want] {
			t.Errorf("expected config %v missing", want)
		}
	}
	// maxTP honored.
	for _, c := range Enumerate(16, 4, 8) {
		if c.TP > 4 {
			t.Fatalf("config %v exceeds maxTP", c)
		}
	}
}

func TestPartitionStagesBalanced(t *testing.T) {
	m := model.GPT3XL() // 26 layers
	for _, pp := range []int{1, 2, 4, 8} {
		stages := PartitionStages(m, pp)
		if len(stages) != pp {
			t.Fatalf("pp=%d: %d stages", pp, len(stages))
		}
		// Contiguity and coverage.
		if stages[0][0] != 0 || stages[pp-1][1] != len(m.Layers) {
			t.Fatalf("pp=%d: stages %v do not cover the model", pp, stages)
		}
		var maxC, total float64
		for i, s := range stages {
			if i > 0 && s[0] != stages[i-1][1] {
				t.Fatalf("pp=%d: gap between stages %v", pp, stages)
			}
			if s[1] <= s[0] {
				t.Fatalf("pp=%d: empty stage %v", pp, s)
			}
			var c float64
			for l := s[0]; l < s[1]; l++ {
				c += m.Layers[l].FLOPsPerSample
			}
			if c > maxC {
				maxC = c
			}
			total += c
		}
		// Balanced: max stage within 2x of the mean (generous, since the
		// embedding layer is lighter than blocks).
		if maxC > 2*total/float64(pp)+1 {
			t.Fatalf("pp=%d: unbalanced stages (max %.2g, mean %.2g)", pp, maxC, total/float64(pp))
		}
	}
}

func TestPartitionStagesSingleLayerStages(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8) // 4 layers
	stages := PartitionStages(m, 4)
	for i, s := range stages {
		if s[1]-s[0] != 1 {
			t.Fatalf("stage %d = %v, want single layer", i, s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PP > layers should panic in PartitionStages")
		}
	}()
	PartitionStages(m, 5)
}

func TestPartitionStagesOptimal(t *testing.T) {
	// Craft a model where greedy would misplace the cut: costs 10,1,1,10.
	m := &model.Model{Name: "toy", Layers: []model.Layer{
		{Name: "a", FLOPsPerSample: 10},
		{Name: "b", FLOPsPerSample: 1},
		{Name: "c", FLOPsPerSample: 1},
		{Name: "d", FLOPsPerSample: 10},
	}}
	stages := PartitionStages(m, 2)
	// Optimal cut is {a,b}|{c,d} with max stage cost 11.
	var worst float64
	for _, s := range stages {
		var c float64
		for l := s[0]; l < s[1]; l++ {
			c += m.Layers[l].FLOPsPerSample
		}
		worst = math.Max(worst, c)
	}
	if worst != 11 {
		t.Fatalf("max stage cost %v, want optimal 11 (stages %v)", worst, stages)
	}
}
