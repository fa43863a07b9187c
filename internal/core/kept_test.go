package core_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/experiments"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/tensor"
)

// A plan lists what moves: a target device whose placement list is its
// source list is one Kept entry, not one noop assignment per
// sub-tensor. These tests pin what that must not change (Stats, the
// expanded assignments) and what Validate demands of a kept device.

// Halving DP on 128 devices leaves the first 64 devices' lists as they
// are: the plan lists no assignment and keeps 64 devices, and it counts
// the same as its expansion.
func TestPlanKeptScaleIn128(t *testing.T) {
	i := slices.IndexFunc(experiments.PlannerScenarios(), func(sc experiments.PlannerScenario) bool {
		return sc.Name == "scale-in-128"
	})
	sc := experiments.PlannerScenarios()[i]
	plan, err := core.GeneratePlan(sc.From, core.AlignDevices(sc.From, sc.To), sc.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 0 || len(plan.Kept) != 64 {
		t.Fatalf("%d assignments and %d kept devices, want 0 and 64", len(plan.Assignments), len(plan.Kept))
	}
	all := &core.Plan{From: plan.From, To: plan.To, Assignments: plan.AllAssignments()}
	if err := all.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Stats(sc.Topo), all.Stats(sc.Topo); got != want || got.Noops != 18624 {
		t.Fatalf("stats %+v, expanded %+v (want 18,624 noops)", got, want)
	}
}

// Plan.Validate holds a kept device to its three rules: listed once in
// the target and in target order, an equal list in the source, and no
// assignment.
func TestPlanValidateKept(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 2}, alloc(4))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Kept, devs(0, 1)) {
		t.Fatalf("kept %v, want devices 0 and 1", plan.Kept)
	}

	// The TP ranks of the source swapped: both kept devices' lists changed.
	swapped := core.NewPTC("swapped", from.Devices)
	swapped.Tensors = maps.Clone(from.Tensors)
	swapped.AssignAll(devs(0), from.Place[1])
	swapped.AssignAll(devs(1), from.Place[0])
	// The target with device 0 listed a second time.
	twice := core.NewPTC("twice", append(slices.Clone(to.Devices), 0))
	twice.Tensors = maps.Clone(to.Tensors)
	for _, d := range to.Devices {
		twice.AssignAll(devs(int(d)), to.Place[d])
	}
	noop := plan.AllAssignments()[0] // a sub-tensor of kept device 0

	for _, c := range []struct {
		name     string
		from, to *core.PTC
		as       []core.Assignment
		kept     []cluster.DeviceID
		want     string
	}{
		{"valid", from, to, plan.Assignments, plan.Kept, ""},
		{"valid expanded", from, to, plan.AllAssignments(), nil, ""},
		{"list changed", swapped, to, plan.Assignments, plan.Kept, "holds a different list in the source"},
		{"kept and assigned", from, to, append(slices.Clone(plan.Assignments), noop), plan.Kept, "on kept dev 0"},
		{"kept and expanded", from, to, plan.AllAssignments(), plan.Kept, "on kept dev 0"},
		{"missing from target", from, to, plan.Assignments, append(slices.Clone(plan.Kept), 7), "kept device 7 not in target"},
		{"out of target order", from, to, plan.Assignments, devs(1, 0), "kept device 0 out of target order"},
		{"listed twice", from, twice, plan.Assignments, plan.Kept, "kept device 0 listed twice"},
		{"not kept, not assigned", from, to, plan.Assignments, devs(0), "has no assignment"},
	} {
		p := &core.Plan{From: c.from, To: c.to, Assignments: c.as, Kept: c.kept}
		err := p.Validate()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
	}
}

// A device that holds one tensor twice, overlapping, is not kept even
// though its list does not change: the planner reads the second region's
// overlap from the first, so its plan has a fetch that is no noop. One
// holding each tensor once is kept. Both plans equal the reference.
func TestPlanKeptNeedsOneRegionPerTensor(t *testing.T) {
	build := func(second tensor.Range) *core.PTC {
		p := core.NewPTC("twice", devs(0, 1))
		p.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{6}})
		p.AddTensor(core.TensorMeta{ID: "v", DType: tensor.Float32, Shape: []int{3}})
		p.Assign(0, "w", tensor.Region{{Lo: 0, Hi: 4}})
		p.Assign(0, "w", tensor.Region{second})
		p.Assign(1, "v", tensor.Region{{Lo: 0, Hi: 3}})
		return p
	}
	for _, second := range []tensor.Range{
		{Lo: 2, Hi: 6}, // overlapping
		{Lo: 4, Hi: 6}, // disjoint
		{Lo: 0, Hi: 4}, // the same region twice
	} {
		from, to := build(second), build(second)
		label := fmt.Sprintf("second region %v", second)
		comparePlanners(t, label, from, to, core.PlanOptions{})
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(plan.Kept, devs(1)) {
			t.Fatalf("%s: kept %v, want device 1 alone", label, plan.Kept)
		}
	}
}

// randomTensors registers two to six tensors of rank one to three.
func randomTensors(rng *rand.Rand) map[core.TensorID]core.TensorMeta {
	metas := map[core.TensorID]core.TensorMeta{}
	for k, n := 0, 2+rng.Intn(5); k < n; k++ {
		shape := make([]int, 1+rng.Intn(3))
		for d := range shape {
			shape[d] = 2 + rng.Intn(6)
		}
		id := core.TensorID(fmt.Sprintf("t%d", k))
		metas[id] = core.TensorMeta{ID: id, DType: tensor.Float32, Shape: shape}
	}
	return metas
}

// randomPlacement places every tensor of metas on up to 12 of 16
// devices: ranks of one to three DP replicas each, placed through one
// shared list or device by device. A tensor is replicated whole on every
// rank, or tiled along a random axis with each piece on a random rank;
// now and then a piece goes once more to a random rank, which may be the
// one already holding it.
func randomPlacement(rng *rand.Rand, metas map[core.TensorID]core.TensorMeta) *core.PTC {
	ranks, dp := 1+rng.Intn(4), 1+rng.Intn(3)
	var ds []cluster.DeviceID
	for _, id := range rng.Perm(16)[:ranks*dp] {
		ds = append(ds, cluster.DeviceID(id))
	}
	p := core.NewPTC("random", ds)
	lists := make([][]core.SubTensor, ranks)
	place := func(r int, id core.TensorID, reg tensor.Region) {
		lists[r] = append(lists[r], core.SubTensor{Tensor: id, Region: reg})
		if rng.Intn(4) == 0 {
			r = rng.Intn(ranks)
			lists[r] = append(lists[r], core.SubTensor{Tensor: id, Region: reg})
		}
	}
	for _, id := range slices.Sorted(maps.Keys(metas)) {
		meta := metas[id]
		p.AddTensor(meta)
		if rng.Intn(3) == 0 {
			full := tensor.FullRegion(meta.Shape)
			for r := range lists {
				place(r, id, full)
			}
			continue
		}
		axis := rng.Intn(len(meta.Shape))
		for _, rg := range tensor.SplitRanges(meta.Shape[axis], 1+rng.Intn(meta.Shape[axis])) {
			reg := tensor.FullRegion(meta.Shape)
			reg[axis] = rg
			place(rng.Intn(ranks), id, reg)
		}
	}
	for r, list := range lists {
		group := ds[r*dp : (r+1)*dp]
		if rng.Intn(3) > 0 {
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

// AlignDevices sums a tensor whose holders all hold one region once per
// holder set; the per-holder version adds each holder on its own. The
// two must align every target alike: over random PTCs with tensors of
// mixed rank, devices holding one tensor twice, whole-tensor replicas
// and degraded sources, and over MoE layouts, whose shared tensors every
// device holds.
func TestAlignDevicesMatchesPerHolder(t *testing.T) {
	check := func(label string, from, to *core.PTC) {
		t.Helper()
		got, want := core.AlignDevices(from, to), core.AlignDevicesPerHolder(from, to)
		if !got.Equal(want) {
			t.Fatalf("%s: AlignDevices differs from the per-holder sum:\n got %v\nwant %v",
				label, placementOf(got), placementOf(want))
		}
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 300; trial++ {
		metas := randomTensors(rng)
		from, to := randomPlacement(rng, metas), randomPlacement(rng, metas)
		label := fmt.Sprintf("random trial %d", trial)
		check(label, from, to)
		if len(from.Devices) > 1 {
			check(label+" degraded", from.WithoutDevices(from.Devices[rng.Intn(len(from.Devices))]), to)
		}
	}

	m := model.MoECustom(3, 16, 8)
	shapes := []parallel.MoEConfig{
		{EP: 2, DP: 1}, {EP: 4, DP: 1}, {EP: 8, DP: 1},
		{EP: 2, DP: 2}, {EP: 4, DP: 2}, {EP: 2, DP: 4},
	}
	for trial := 0; trial < 40; trial++ {
		cf, ct := shapes[rng.Intn(len(shapes))], shapes[rng.Intn(len(shapes))]
		from, err := parallel.BuildMoEPTC(m, cf, allocFrom(rng.Intn(3), cf.WorldSize()))
		if err != nil {
			t.Fatal(err)
		}
		to, err := parallel.BuildMoEPTC(m, ct, allocFrom(rng.Intn(3), ct.WorldSize()))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("moe trial %d %v -> %v", trial, cf, ct), from, to)
	}
}
