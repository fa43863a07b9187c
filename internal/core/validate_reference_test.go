package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/tensor"
)

// validateReference is PTC.Validate as it was while it read the
// compiled index: every holder of every tensor in index order (placed
// tensors in first-placement order, devices ascending, then the
// unplaced ones in map order). TestPTCValidateMatchesReference holds
// the list walk to its verdict and its error text.
func validateReference(p *PTC) error {
	idx := p.index()
	var regs []tensor.Region
	full := make(tensor.Region, 0, 8)
	for i := range idx.all {
		ti := &idx.all[i]
		if !ti.meta.DType.Valid() { // placed, never registered
			return fmt.Errorf("core: device %d holds unknown tensor %q", ti.holders[0].dev, ti.id)
		}
		if len(ti.holders) == 0 {
			return fmt.Errorf("core: tensor %q has no placement", ti.id)
		}
		regs = regs[:0]
		for k := range ti.holders {
			h := &ti.holders[k]
			if k > 0 && sameStorage(h.reg, regs[len(regs)-1]) {
				continue // a replica placed from the region just checked
			}
			if !h.reg.Valid(ti.meta.Shape) {
				return fmt.Errorf("core: device %d holds %q with invalid region %v (shape %v)",
					h.dev, ti.id, h.reg, ti.meta.Shape)
			}
			regs = append(regs, h.reg)
		}
		full = full[:0]
		for _, n := range ti.meta.Shape {
			full = append(full, tensor.Range{Lo: 0, Hi: n})
		}
		if !covers(full, regs) {
			return fmt.Errorf("core: tensor %q not fully covered by placements", ti.id)
		}
	}
	return nil
}

// randomValidPTC builds a valid PTC the way parallelizers do and then
// some: sparse device IDs listed in random order, sometimes one listed
// twice or holding nothing; each tensor tiled along a random axis, each
// piece on one rank and sometimes replicated onto another rank (same
// region storage) or twice onto one; ranks placed on their DP group
// through one shared list, or device by device.
func randomValidPTC(rng *rand.Rand) *PTC {
	ranks, dp := 1+rng.Intn(3), 1+rng.Intn(3)
	var groups []cluster.DeviceID
	for _, id := range rng.Perm(40)[:ranks*dp+1] {
		groups = append(groups, cluster.DeviceID(id))
	}
	groups, spare := groups[:ranks*dp], groups[ranks*dp]
	devices := slices.Clone(groups)
	if rng.Intn(2) == 0 {
		devices = append(devices, spare) // holds nothing
	}
	if rng.Intn(3) == 0 {
		devices = append(devices, groups[rng.Intn(len(groups))]) // listed twice
	}
	rng.Shuffle(len(devices), func(i, j int) { devices[i], devices[j] = devices[j], devices[i] })
	p := NewPTC("random", devices)
	lists := make([][]SubTensor, ranks)
	for k, nt := 0, 1+rng.Intn(5); k < nt; k++ {
		id := TensorID(fmt.Sprintf("t%d", (k*7)%nt)) // IDs out of placement order
		shape := make([]int, 1+rng.Intn(3))
		for d := range shape {
			shape[d] = 2 + rng.Intn(5)
		}
		p.AddTensor(TensorMeta{ID: id, DType: tensor.Float32, Shape: shape})
		axis := rng.Intn(len(shape))
		cuts := []int{0}
		for c := 1; c < shape[axis]; c++ {
			if rng.Intn(3) == 0 {
				cuts = append(cuts, c)
			}
		}
		cuts = append(cuts, shape[axis])
		for j := 0; j+1 < len(cuts); j++ {
			reg := tensor.FullRegion(shape)
			reg[axis] = tensor.Range{Lo: cuts[j], Hi: cuts[j+1]}
			r := rng.Intn(ranks)
			lists[r] = append(lists[r], SubTensor{Tensor: id, Region: reg})
			if rng.Intn(3) == 0 {
				r = rng.Intn(ranks)
				lists[r] = append(lists[r], SubTensor{Tensor: id, Region: reg})
			}
		}
	}
	for r, list := range lists {
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		group := groups[r*dp : (r+1)*dp]
		if rng.Intn(4) > 0 {
			p.AssignAll(group, list)
			continue
		}
		for _, d := range group {
			for _, s := range list {
				p.Assign(d, s.Tensor, s.Region)
			}
		}
	}
	return p
}

// editList replaces device d's list with a copy edited by f; a shared
// list stays intact for the devices it is shared with.
func editList(p *PTC, d cluster.DeviceID, f func([]SubTensor) []SubTensor) {
	p.Place[d] = f(slices.Clone(p.Place[d]))
}

// placed returns the devices, ascending, whose lists are not empty.
func placed(p *PTC) []cluster.DeviceID {
	var out []cluster.DeviceID
	for d, list := range p.Place {
		if len(list) > 0 {
			out = append(out, d)
		}
	}
	slices.Sort(out)
	return out
}

// malform breaks a valid PTC one way. The edits write Place directly, as
// nothing else can produce such a PTC (Assign and AssignAll panic).
func malform(p *PTC, rng *rand.Rand, kind string) {
	devs := placed(p)
	d := devs[rng.Intn(len(devs))]
	switch kind {
	case "unknown tensor":
		editList(p, d, func(l []SubTensor) []SubTensor {
			return slices.Insert(l, rng.Intn(len(l)+1), SubTensor{Tensor: "no/such", Region: tensor.FullRegion([]int{2})})
		})
	case "out of bounds":
		editList(p, d, func(l []SubTensor) []SubTensor {
			i := rng.Intn(len(l))
			reg := l[i].Region.Clone()
			if rng.Intn(2) == 0 {
				reg[len(reg)-1].Hi = 1 << 20
			} else {
				reg = append(reg, tensor.Range{Lo: 0, Hi: 1}) // wrong rank
			}
			l[i].Region = reg
			return l
		})
	case "coverage gap":
		// Shrink one piece on every device holding it.
		list := p.Place[d]
		victim := list[rng.Intn(len(list))]
		shrunk := victim.Region.Clone()
		k := rng.Intn(len(shrunk))
		if rng.Intn(2) == 0 {
			shrunk[k].Hi--
		} else {
			shrunk[k].Lo++
		}
		for _, e := range devs {
			editList(p, e, func(l []SubTensor) []SubTensor {
				for i := range l {
					if l[i].Tensor == victim.Tensor && l[i].Region.Equal(victim.Region) {
						l[i].Region = shrunk
					}
				}
				return l
			})
		}
	case "unplaced tensor":
		p.AddTensor(TensorMeta{ID: "unplaced", DType: tensor.Float32, Shape: []int{3}})
	default:
		panic(kind)
	}
}

// The list walk gives the verdict and the error text the index-based
// Validate gave, on valid PTCs and on PTCs broken one or several ways
// (at most one unplaced tensor: with two, the reference names one by
// map order).
func TestPTCValidateMatchesReference(t *testing.T) {
	kinds := []string{"unknown tensor", "out of bounds", "coverage gap", "unplaced tensor"}
	rng := rand.New(rand.NewSource(11))
	seen := map[string]int{}
	for trial := 0; trial < 1000; trial++ {
		p := randomValidPTC(rng)
		var applied []string
		switch n := rng.Intn(4); {
		case n == 0:
			applied = []string{"valid"}
		case n == 1:
			applied = []string{kinds[rng.Intn(len(kinds))]}
		default:
			for _, i := range rng.Perm(len(kinds))[:n] {
				applied = append(applied, kinds[i])
			}
		}
		for _, kind := range applied {
			if kind != "valid" {
				malform(p, rng, kind)
			}
		}
		got, want := p.Validate(), validateReference(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%v): Validate = %v, reference = %v", trial, applied, got, want)
		}
		if (got == nil) != (applied[0] == "valid") {
			t.Fatalf("trial %d (%v): Validate = %v", trial, applied, got)
		}
		if len(applied) > 1 {
			seen["several"]++
		} else {
			seen[applied[0]]++
		}
	}
	for _, kind := range append(kinds, "valid", "several") {
		if n := seen[kind]; n < 40 {
			t.Errorf("%q drawn %d times, want >= 40", kind, n)
		}
	}
}
