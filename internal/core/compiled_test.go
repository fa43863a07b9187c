package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/experiments"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/tensor"
)

// Every metadata layer reads one compiled index per PTC (index.go).
// These tests pin what that must not change — AlignDevices' output, the
// invariants Plan.Validate holds — and what it promises: one build per
// PTC value, none stale after a mutation, safe to share, and a
// plan-change sequence that stays cheap.

// alignDevicesReference is AlignDevices as its doc comment describes it,
// deliberately naive: the overlap of every placement group with every
// device's source holdings, group by device by holding, intersections
// materialized; then the greedy matching, largest overlap first.
func alignDevicesReference(from, to *core.PTC) *core.PTC {
	type cand struct {
		group int
		dev   cluster.DeviceID
		olap  int64
	}
	var cands []cand
	for g, gd := range to.Devices {
		for _, d := range to.Devices {
			var olap int64
			for _, want := range to.Place[gd] {
				for _, have := range from.Place[d] {
					if have.Tensor != want.Tensor {
						continue
					}
					if inter, ok := want.Region.Intersect(have.Region); ok {
						olap += inter.NumBytes(to.Tensors[want.Tensor].DType)
					}
				}
			}
			if olap > 0 {
				cands = append(cands, cand{g, d, olap})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].olap != cands[j].olap {
			return cands[i].olap > cands[j].olap
		}
		if cands[i].group != cands[j].group {
			return cands[i].group < cands[j].group
		}
		return cands[i].dev < cands[j].dev
	})
	assign := map[int]cluster.DeviceID{}
	taken := map[cluster.DeviceID]bool{}
	for _, c := range cands {
		if _, done := assign[c.group]; !done && !taken[c.dev] {
			assign[c.group], taken[c.dev] = c.dev, true
		}
	}
	out := core.NewPTC(to.Name, to.Devices)
	for _, meta := range to.Tensors {
		out.AddTensor(meta)
	}
	next := 0
	for g, old := range to.Devices {
		dev, done := assign[g]
		for !done {
			if dev = to.Devices[next]; !taken[dev] {
				done = true
			}
			next++
		}
		for _, s := range to.Place[old] {
			out.Assign(dev, s.Tensor, s.Region)
		}
	}
	return out
}

// requireAligned fails unless AlignDevices and the reference agree on
// (from, to), and the plan onto the aligned target is valid.
func requireAligned(t *testing.T, label string, from, to *core.PTC, opts core.PlanOptions) {
	t.Helper()
	got, want := core.AlignDevices(from, to), alignDevicesReference(from, to)
	if !got.Equal(want) {
		t.Fatalf("%s: AlignDevices differs from the reference:\n got %v\nwant %v", label, placementOf(got), placementOf(want))
	}
	plan, err := core.GeneratePlan(from, got, opts)
	if err != nil {
		if !opts.StorageFallback {
			return // a degraded source without fallback may be unplannable
		}
		t.Fatalf("%s: %v", label, err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("%s: plan onto the aligned target invalid: %v", label, err)
	}
}

// placementOf summarizes which group of to landed on which device.
func placementOf(p *core.PTC) string {
	var b strings.Builder
	for _, d := range p.Devices {
		fmt.Fprintf(&b, " dev%d:%d", d, len(p.Place[d]))
		if len(p.Place[d]) > 0 {
			fmt.Fprintf(&b, "(%s%v)", p.Place[d][0].Tensor, p.Place[d][0].Region)
		}
	}
	return b.String()
}

// TestAlignDevicesMatchesReference runs the transitions of
// TestPlanEquivalenceRandomized and TestPlanEquivalenceMoE — grow,
// shrink, redeploy, fail-stop with degraded sources, expert-parallel
// reshapes — through AlignDevices and the naive reference.
func TestAlignDevicesMatchesReference(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8) // 6 layers
	var cfgs []parallel.Config
	for _, n := range []int{1, 2, 4, 6, 8} {
		cfgs = append(cfgs, parallel.Enumerate(n, 8, 6)...)
	}
	trials := 0
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 30; trial++ {
			cf, ct := cfgs[rng.Intn(len(cfgs))], cfgs[rng.Intn(len(cfgs))]
			offF, offT := rng.Intn(4), rng.Intn(4)
			from := buildPTC(t, m, cf, allocFrom(offF, cf.WorldSize()))
			to := buildPTC(t, m, ct, allocFrom(offT, ct.WorldSize()))
			label := fmt.Sprintf("seed %d trial %d %v@%d -> %v@%d", seed, trial, cf, offF, ct, offT)
			requireAligned(t, label, from, to, core.PlanOptions{})
			trials++

			if nFail := rng.Intn(len(from.Devices)); nFail > 0 {
				var failed []cluster.DeviceID
				for _, i := range rng.Perm(len(from.Devices))[:nFail] {
					failed = append(failed, from.Devices[i])
				}
				requireAligned(t, fmt.Sprintf("%s failed=%v", label, failed),
					from.WithoutDevices(failed...), to, core.PlanOptions{StorageFallback: true})
				trials++
			}
		}
	}
	moe := model.MoECustom(3, 16, 8)
	shapes := []parallel.MoEConfig{
		{EP: 2, DP: 1}, {EP: 4, DP: 1}, {EP: 8, DP: 1},
		{EP: 2, DP: 2}, {EP: 4, DP: 2}, {EP: 2, DP: 4},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		cf, ct := shapes[rng.Intn(len(shapes))], shapes[rng.Intn(len(shapes))]
		from, err := parallel.BuildMoEPTC(moe, cf, allocFrom(rng.Intn(3), cf.WorldSize()))
		if err != nil {
			t.Fatal(err)
		}
		to, err := parallel.BuildMoEPTC(moe, ct, allocFrom(rng.Intn(3), ct.WorldSize()))
		if err != nil {
			t.Fatal(err)
		}
		requireAligned(t, fmt.Sprintf("moe trial %d %v -> %v", trial, cf, ct), from, to, core.PlanOptions{})
		trials++
	}
	if trials < 200 {
		t.Fatalf("only %d scenarios, want >= 200", trials)
	}
}

// The index is the source's alone: building and validating a PTC
// compiles nothing, a plan's target is only walked, and alignment and
// every plan against one source read the one index its first reader
// built.
func TestIndexBuiltOncePerPTC(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8)
	start := core.IndexBuilds()
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 2, DP: 1}, alloc(4))
	to := buildPTC(t, m, parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8))
	other := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	for _, p := range []*core.PTC{from, to, other} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.IndexBuilds() - start; n != 0 {
		t.Fatalf("%d index builds across BuildPTC and Validate of three PTCs, want 0", n)
	}
	aligned := core.AlignDevices(from, to)
	for _, target := range []*core.PTC{aligned, other, aligned} {
		plan, err := core.GeneratePlan(from, target, core.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := core.DiffPlan(nil, from, aligned, core.PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := core.IndexBuilds() - start; n != 1 {
		t.Fatalf("%d index builds across AlignDevices and four plans against one source, want 1 (the source's)", n)
	}
	// A source nobody has read yet is compiled by its first reader, once.
	fresh := from.WithoutDevices(3)
	core.AlignDevices(fresh, to)
	for i := 0; i < 2; i++ {
		if _, err := core.GeneratePlan(fresh, aligned, core.PlanOptions{StorageFallback: true}); err != nil {
			t.Fatal(err)
		}
	}
	if n := core.IndexBuilds() - start; n != 2 {
		t.Fatalf("%d index builds after one fresh source read three times, want 2", n)
	}
}

// AddTensor and Assign drop the compiled form: a plan made after them
// sees the new tensor and the new holder.
func TestMutationDropsIndex(t *testing.T) {
	meta := func(id core.TensorID) core.TensorMeta {
		return core.TensorMeta{ID: id, DType: tensor.Float32, Shape: []int{8}}
	}
	full := tensor.FullRegion([]int{8})
	from := core.NewPTC("from", devs(0, 1))
	from.AddTensor(meta("w"))
	from.Assign(0, "w", full)
	to := core.NewPTC("to", devs(1))
	to.AddTensor(meta("w"))
	to.Assign(1, "w", full)

	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(nil); st.MovedBytes != 32 || st.Noops != 0 {
		t.Fatalf("before the mutation: %+v, want 32 bytes moved", st)
	}

	// Device 1 gets a replica: the same target is now a no-op.
	from.Assign(1, "w", full)
	plan, err = core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(nil); st.MovedBytes != 0 || st.Noops != 1 {
		t.Fatalf("after Assign the plan still reads the old placement: %+v", st)
	}
	if h := from.Holders("w", full); len(h) != 2 {
		t.Fatalf("holders after Assign = %v", h)
	}

	// A tensor registered and placed after the source was compiled.
	for _, p := range []*core.PTC{from, to} {
		p.AddTensor(meta("b"))
		p.Assign(1, "b", full)
	}
	if err := from.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err = core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatalf("after AddTensor: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(nil); st.Assignments != 2 || st.Noops != 2 {
		t.Fatalf("after AddTensor: %+v, want two no-op assignments", st)
	}
}

// Goroutines that meet on a source nobody has compiled yet build its
// index once between them and plan the same plans. Run under -race.
func TestConcurrentPlansShareOneIndex(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8)
	topo := cluster.OnPrem16()
	targets := []*core.PTC{
		buildPTC(t, m, parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8)),
		buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, allocFrom(2, 4)),
	}
	for round := 0; round < 10; round++ {
		from := buildPTC(t, m, parallel.Config{TP: 2, PP: 2, DP: 1}, alloc(4)).WithoutDevices() // uncompiled copy
		start := core.IndexBuilds()
		plans := make([][]*core.Plan, 4)
		var wg sync.WaitGroup
		for g := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, to := range targets {
					plan, err := core.GeneratePlan(from, core.AlignDevices(from, to), core.PlanOptions{Topo: topo})
					if err != nil {
						t.Error(err)
						return
					}
					plans[g] = append(plans[g], plan)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if n := core.IndexBuilds() - start; n != 1 {
			t.Fatalf("round %d: %d index builds for one source shared by %d goroutines, want 1", round, n, len(plans))
		}
		for g := 1; g < len(plans); g++ {
			for k := range targets {
				if !reflect.DeepEqual(plans[g][k].Assignments, plans[0][k].Assignments) {
					t.Fatalf("round %d: goroutine %d planned target %d differently", round, g, k)
				}
			}
		}
	}
}

// handPlan is a hand-built plan over p's PTCs: nothing Validate has seen.
func handPlan(p *core.Plan, as []core.Assignment) *core.Plan {
	return &core.Plan{From: p.From, To: p.To, Assignments: as}
}

// Plan.Validate accepts a valid plan in any assignment order and
// rejects every malformation it always has.
func TestPlanValidateInvariants(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8)
	// Halves to thirds: outer thirds read part of one half, the middle
	// third is assembled from both.
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 3, PP: 1, DP: 2}, alloc(6))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	valid := plan.Assignments
	clone := func() []core.Assignment {
		as := append([]core.Assignment(nil), valid...)
		for i := range as {
			as[i].Fetch = append([]core.Fetch(nil), as[i].Fetch...)
		}
		return as
	}
	// merged is an assignment assembled from several fetches, moved from
	// other devices; split has a fetch that reads part of its source.
	merged, split := -1, -1
	for i, a := range valid {
		if len(a.Fetch) > 1 && merged < 0 {
			merged = i
		}
		if len(a.Fetch) == 1 && !a.Fetch[0].Src.Region.Equal(a.Fetch[0].Want) && split < 0 {
			split = i
		}
	}
	if merged < 0 || split < 0 {
		t.Fatalf("fixture has no merged (%d) or no split (%d) assignment", merged, split)
	}

	if err := handPlan(plan, clone()).Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for seed := int64(0); seed < 5; seed++ {
		as := clone()
		rand.New(rand.NewSource(seed)).Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
		if err := handPlan(plan, as).Validate(); err != nil {
			t.Fatalf("valid plan rejected with its assignments shuffled (seed %d): %v", seed, err)
		}
	}
	reversed := clone()
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	if err := handPlan(plan, reversed).Validate(); err != nil {
		t.Fatalf("valid plan rejected with its assignments reversed: %v", err)
	}

	shrink := func(r tensor.Region) tensor.Region {
		out := r.Clone()
		for d := range out {
			if out[d].Len() > 1 {
				out[d].Hi--
				return out
			}
		}
		t.Fatalf("region %v cannot shrink", r)
		return nil
	}
	grow := func(r tensor.Region) tensor.Region {
		out := r.Clone()
		out[0].Hi++
		return out
	}
	for name, tc := range map[string]struct {
		mutate func(as []core.Assignment) []core.Assignment
		want   string
	}{
		"assignment missing": {
			func(as []core.Assignment) []core.Assignment { return as[1:] }, "has no assignment"},
		"last assignment missing": {
			func(as []core.Assignment) []core.Assignment { return as[:len(as)-1] }, "has no assignment"},
		"assignment twice": {
			func(as []core.Assignment) []core.Assignment { return append(as, as[3]) }, "not in target PTC"},
		"device outside the target": {
			func(as []core.Assignment) []core.Assignment { as[0].Device = 99; return as }, "not in target PTC"},
		"another device's sub-tensor": {
			func(as []core.Assignment) []core.Assignment { as[0].Device = as[len(as)-1].Device; return as }, "not in target PTC"},
		"region not the target's": {
			func(as []core.Assignment) []core.Assignment { as[0].Region = shrink(as[0].Region); return as }, "not in target PTC"},
		"unknown tensor": {
			func(as []core.Assignment) []core.Assignment { as[0].Tensor = "no/such/tensor"; return as }, "not in target PTC"},
		"fetch outside its assignment": {
			func(as []core.Assignment) []core.Assignment {
				as[split].Fetch[0].Want = grow(as[split].Region)
				return as
			}, "outside assignment"},
		"fetch outside its source": {
			func(as []core.Assignment) []core.Assignment {
				as[split].Fetch[0].Src.Region = shrink(as[split].Fetch[0].Want)
				return as
			}, "outside source region"},
		"fetch dropped": {
			func(as []core.Assignment) []core.Assignment { as[merged].Fetch = as[merged].Fetch[1:]; return as }, "do not cover"},
		"fetch too small": {
			func(as []core.Assignment) []core.Assignment {
				as[split].Fetch[0].Want = shrink(as[split].Fetch[0].Want)
				return as
			}, "do not cover"},
		"no fetches": {
			func(as []core.Assignment) []core.Assignment { as[0].Fetch = nil; return as }, "do not cover"},
	} {
		err := handPlan(plan, tc.mutate(clone())).Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate returned %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// The whole sequence the coordinator runs per priced change, at 128
// devices, stays within an allocation budget, so that a layer going back
// to allocating per placement (the sequence allocated 538k times per
// change before the layers shared one compiled index) fails a test
// instead of waiting for a benchmark run.
func TestPlanChangeAllocBudget128(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 128-device PTCs")
	}
	// While Validate still compiled an index, the costliest scenario
	// (scale-out-128) measured 4,979, and 5,562 under the race detector;
	// the budget is that plus 5 %.
	budget := 5228.0
	if raceEnabled {
		budget = 5840
	}
	for _, sc := range experiments.PlannerScenarios() {
		if sc.Devices != 128 {
			continue
		}
		allocs := testing.AllocsPerRun(2, func() {
			if err := sc.PlanChange(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per plan change", sc.Name, allocs)
		if allocs > budget {
			t.Errorf("%s: %.0f allocations per plan change, budget %.0f", sc.Name, allocs, budget)
		}
	}
}
