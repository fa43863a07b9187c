package core_test

import (
	"fmt"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/tensor"
)

func devs(ids ...int) []cluster.DeviceID {
	out := make([]cluster.DeviceID, len(ids))
	for i, id := range ids {
		out[i] = cluster.DeviceID(id)
	}
	return out
}

func TestPTCBuildAndValidate(t *testing.T) {
	p := core.NewPTC("toy", devs(0, 1))
	p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4, 4}})
	p.Assign(0, "w", tensor.Region{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 4}})
	p.Assign(1, "w", tensor.Region{{Lo: 2, Hi: 4}, {Lo: 0, Hi: 4}})
	if err := p.Validate(); err != nil {
		t.Fatalf("valid PTC rejected: %v", err)
	}
	if got := p.DeviceBytes(0); got != 2*4*4 {
		t.Fatalf("DeviceBytes = %d", got)
	}
	if got := p.TotalPlacedBytes(); got != 4*4*4 {
		t.Fatalf("TotalPlacedBytes = %d", got)
	}
}

func TestPTCValidateDetectsGaps(t *testing.T) {
	p := core.NewPTC("gap", devs(0))
	p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4}})
	p.Assign(0, "w", tensor.Region{{Lo: 0, Hi: 2}})
	if err := p.Validate(); err == nil {
		t.Fatal("uncovered tensor accepted")
	}
	p.Assign(0, "w", tensor.Region{{Lo: 2, Hi: 4}})
	if err := p.Validate(); err != nil {
		t.Fatalf("covered tensor rejected: %v", err)
	}
}

func TestPTCValidateDetectsMissingPlacement(t *testing.T) {
	p := core.NewPTC("missing", devs(0))
	p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4}})
	if err := p.Validate(); err == nil {
		t.Fatal("tensor with no placement accepted")
	}
}

// With several bad tensors, PTC.Validate and the planner's metadata
// check name the same one whatever the map order: twenty fresh PTCs,
// one error text each.
func TestPTCValidateErrorsDeterministic(t *testing.T) {
	ids := []core.TensorID{"e", "b", "w", "a", "c", "d"}
	full := tensor.FullRegion([]int{4})
	unplaced, meta := map[string]bool{}, map[string]bool{}
	for i := 0; i < 20; i++ {
		from := core.NewPTC("from", devs(0, 1))
		to := core.NewPTC("to", devs(0, 1))
		for k, id := range ids {
			from.AddTensor(core.TensorMeta{ID: id, DType: tensor.Float32, Shape: []int{4}})
			shape := []int{4 + k%2} // every other tensor differs
			to.AddTensor(core.TensorMeta{ID: id + "'", DType: tensor.Float32, Shape: []int{4}})
			to.AddTensor(core.TensorMeta{ID: id, DType: tensor.Float32, Shape: shape})
		}
		from.Assign(1, "w", full)
		unplaced[fmt.Sprint(from.Validate())] = true
		_, err := core.GeneratePlan(from, to, core.PlanOptions{})
		meta[fmt.Sprint(err)] = true
	}
	for name, texts := range map[string]map[string]bool{"PTC.Validate": unplaced, "GeneratePlan": meta} {
		if len(texts) != 1 {
			t.Errorf("%s: %d error texts over 20 fresh PTCs, want 1: %v", name, len(texts), texts)
		}
	}
	if !unplaced[`core: tensor "a" has no placement`] {
		t.Errorf("PTC.Validate: %v, want the first unplaced tensor by ID", unplaced)
	}
	if !meta[`core: plan: tensor "a" metadata differs between PTCs`] {
		t.Errorf("GeneratePlan: %v, want the first bad tensor by ID", meta)
	}
}

func TestPTCAssignPanics(t *testing.T) {
	p := core.NewPTC("panics", devs(0))
	p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4}})
	for name, f := range map[string]func(){
		"unknown tensor": func() { p.Assign(0, "nope", tensor.Region{{Lo: 0, Hi: 1}}) },
		"bad region":     func() { p.Assign(0, "w", tensor.Region{{Lo: 0, Hi: 9}}) },
		"bad device":     func() { p.Assign(7, "w", tensor.Region{{Lo: 0, Hi: 4}}) },
		"dup tensor":     func() { p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{1}}) },
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

func TestPTCSlicesDeduplicated(t *testing.T) {
	p := core.NewPTC("dp", devs(0, 1))
	p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4}})
	full := tensor.FullRegion([]int{4})
	p.Assign(0, "w", full)
	p.Assign(1, "w", full) // DP replica
	if got := p.Slices("w"); len(got) != 1 {
		t.Fatalf("slices = %v", got)
	}
	if h := p.Holders("w", tensor.Region{{Lo: 1, Hi: 2}}); len(h) != 2 {
		t.Fatalf("holders = %v", h)
	}
}

func TestPTCWithoutDevices(t *testing.T) {
	p := core.NewPTC("fail", devs(0, 1, 2))
	p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{6}})
	p.Assign(0, "w", tensor.Region{{Lo: 0, Hi: 2}})
	p.Assign(1, "w", tensor.Region{{Lo: 2, Hi: 4}})
	p.Assign(2, "w", tensor.Region{{Lo: 4, Hi: 6}})
	q := p.WithoutDevices(1)
	if len(q.Devices) != 2 {
		t.Fatalf("surviving devices = %v", q.Devices)
	}
	if err := q.Validate(); err == nil {
		t.Fatal("degraded PTC with lost range should fail validation")
	}
	if h := q.Holders("w", tensor.Region{{Lo: 2, Hi: 4}}); len(h) != 0 {
		t.Fatalf("lost range still has holders: %v", h)
	}
	// Original untouched.
	if err := p.Validate(); err != nil {
		t.Fatalf("original mutated: %v", err)
	}
}

func TestPTCEqual(t *testing.T) {
	mk := func() *core.PTC {
		p := core.NewPTC("x", devs(0, 1))
		p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4}})
		p.Assign(0, "w", tensor.Region{{Lo: 0, Hi: 2}})
		p.Assign(1, "w", tensor.Region{{Lo: 2, Hi: 4}})
		return p
	}
	a, b := mk(), mk()
	if !a.Equal(b) {
		t.Fatal("identical PTCs unequal")
	}
	b.Assign(1, "w", tensor.Region{{Lo: 0, Hi: 1}})
	if a.Equal(b) {
		t.Fatal("different PTCs equal")
	}
}

// Unique lists every distinct sub-tensor once, at the first device in
// rank order (the order of PTC.Devices, not of device IDs) that holds
// it, in that device's placement order. checkpoint.Save writes what it
// lists and transform.ReadPTC reads it, so a piece listed twice is
// written twice and a piece left out is lost.
func TestPTCUnique(t *testing.T) {
	rows := func(lo, hi int) tensor.Region { return tensor.Region{{Lo: lo, Hi: hi}, {Lo: 0, Hi: 4}} }
	cols := func(lo, hi int) tensor.Region { return tensor.Region{{Lo: 0, Hi: 4}, {Lo: lo, Hi: hi}} }
	sub := func(id core.TensorID, reg tensor.Region) core.SubTensor {
		return core.SubTensor{Tensor: id, Region: reg}
	}
	for _, tc := range []struct {
		name  string
		devs  []cluster.DeviceID
		build func(p *core.PTC)
		want  [][]core.SubTensor // by position in devs
	}{
		{
			name: "DP replicas: the first device in rank order holds the piece",
			devs: devs(5, 2, 7),
			build: func(p *core.PTC) {
				p.AssignAll(devs(5, 2, 7), []core.SubTensor{sub("w", rows(0, 4)), sub("b", tensor.Region{{Lo: 0, Hi: 4}})})
			},
			want: [][]core.SubTensor{{sub("w", rows(0, 4)), sub("b", tensor.Region{{Lo: 0, Hi: 4}})}, nil, nil},
		},
		{
			name: "TP split by rows, PP stage split by columns, each split replicated once",
			devs: devs(0, 1, 2, 3),
			build: func(p *core.PTC) {
				p.AssignAll(devs(0, 2), []core.SubTensor{sub("w", rows(0, 2))})
				p.AssignAll(devs(1, 3), []core.SubTensor{sub("w", rows(2, 4))})
				p.Assign(2, "v", cols(0, 1))
				p.Assign(3, "v", cols(1, 4))
			},
			want: [][]core.SubTensor{{sub("w", rows(0, 2))}, {sub("w", rows(2, 4))}, {sub("v", cols(0, 1))}, {sub("v", cols(1, 4))}},
		},
		{
			name: "a region repeated in one list, and equal regions that share no storage",
			devs: devs(0, 1),
			build: func(p *core.PTC) {
				p.Assign(0, "w", rows(0, 2))
				p.Assign(0, "v", cols(0, 4))
				p.Assign(0, "w", rows(0, 2))
				p.Assign(1, "w", rows(0, 2))
				p.Assign(1, "w", rows(2, 4))
			},
			want: [][]core.SubTensor{{sub("w", rows(0, 2)), sub("v", cols(0, 4))}, {sub("w", rows(2, 4))}},
		},
		{
			name: "an unplaced tensor is listed nowhere",
			devs: devs(0, 1),
			build: func(p *core.PTC) {
				p.AddTensor(core.TensorMeta{ID: "u", DType: tensor.Float32, Shape: []int{4}})
				p.Assign(1, "w", rows(0, 4))
			},
			want: [][]core.SubTensor{nil, {sub("w", rows(0, 4))}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := core.NewPTC("unique", tc.devs)
			p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4, 4}})
			p.AddTensor(core.TensorMeta{ID: "v", DType: tensor.Float32, Shape: []int{4, 4}})
			p.AddTensor(core.TensorMeta{ID: "b", DType: tensor.Float32, Shape: []int{4}})
			tc.build(p)
			got := p.Unique()
			if len(got) != len(tc.want) {
				t.Fatalf("Unique returned %d lists for %d devices", len(got), len(tc.want))
			}
			for g, want := range tc.want {
				same := len(got[g]) == len(want)
				for i := 0; same && i < len(want); i++ {
					same = got[g][i].Tensor == want[i].Tensor && got[g][i].Region.Equal(want[i].Region)
				}
				if !same {
					t.Fatalf("device %d (rank %d) lists %v, want %v", tc.devs[g], g, got[g], want)
				}
			}
		})
	}
}
