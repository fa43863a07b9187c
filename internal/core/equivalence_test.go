package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/tensor"
)

// The indexed parallel planner is an optimization of the sequential
// reference planner, not a redesign: both must emit byte-identical
// plans — same assignment order, same fetch order, same source choices
// under send-load balancing, same storage fallbacks. These property
// tests pin that down over randomized grow / shrink / redeploy /
// failure transitions.

func requireIdenticalPlans(t *testing.T, label string, got, want *core.Plan) {
	t.Helper()
	all := got.AllAssignments()
	if len(all) != len(want.Assignments) {
		t.Fatalf("%s: %d assignments, reference has %d", label, len(all), len(want.Assignments))
	}
	if gs, ws := got.Stats(nil), want.Stats(nil); gs != ws {
		t.Fatalf("%s: stats %+v, reference has %+v", label, gs, ws)
	}
	for i := range want.Assignments {
		ga, wa := all[i], want.Assignments[i]
		if ga.Device != wa.Device || ga.Tensor != wa.Tensor || !ga.Region.Equal(wa.Region) {
			t.Fatalf("%s: assignment %d differs:\n got %d %s%v\nwant %d %s%v",
				label, i, ga.Device, ga.Tensor, ga.Region, wa.Device, wa.Tensor, wa.Region)
		}
		if len(ga.Fetch) != len(wa.Fetch) {
			t.Fatalf("%s: assignment %d (%s%v): %d fetches, reference has %d\n got %v\nwant %v",
				label, i, ga.Tensor, ga.Region, len(ga.Fetch), len(wa.Fetch), ga.Fetch, wa.Fetch)
		}
		for j := range wa.Fetch {
			gf, wf := ga.Fetch[j], wa.Fetch[j]
			if !gf.Want.Equal(wf.Want) || gf.Src.Kind != wf.Src.Kind ||
				gf.Src.Device != wf.Src.Device || !gf.Src.Region.Equal(wf.Src.Region) {
				t.Fatalf("%s: assignment %d fetch %d differs:\n got %+v\nwant %+v",
					label, i, j, gf, wf)
			}
		}
	}
}

// comparePlanners runs both planners on the same inputs and fails on
// any observable difference.
func comparePlanners(t *testing.T, label string, from, to *core.PTC, opts core.PlanOptions) {
	t.Helper()
	got, gotErr := core.GeneratePlan(from, to, opts)
	want, wantErr := core.GeneratePlanReference(from, to, opts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error mismatch: got %v, reference %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text mismatch:\n got %v\nwant %v", label, gotErr, wantErr)
		}
		return
	}
	requireIdenticalPlans(t, label, got, want)
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: optimized plan invalid: %v", label, err)
	}
}

// TestPlanEquivalenceRandomized is the central equivalence property
// test: >= 100 randomized (T,P,D) -> (T',P',D') transitions over random
// device sets and topologies, with random fail-stop device loss and
// StorageFallback recovery mixed in.
func TestPlanEquivalenceRandomized(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8) // 6 layers
	topo := cluster.OnPrem16()
	var cfgs []parallel.Config
	for _, n := range []int{1, 2, 4, 6, 8} {
		cfgs = append(cfgs, parallel.Enumerate(n, 8, 6)...)
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 30; trial++ {
			cf := cfgs[rng.Intn(len(cfgs))]
			ct := cfgs[rng.Intn(len(cfgs))]
			offF, offT := rng.Intn(4), rng.Intn(4)
			from, err := parallel.BuildPTC(m, cf, allocFrom(offF, cf.WorldSize()))
			if err != nil {
				t.Fatal(err)
			}
			to, err := parallel.BuildPTC(m, ct, allocFrom(offT, ct.WorldSize()))
			if err != nil {
				t.Fatal(err)
			}
			opts := core.PlanOptions{}
			if rng.Intn(2) == 0 {
				opts.Topo = topo
			}
			label := fmt.Sprintf("seed %d trial %d %v@%d -> %v@%d (topo=%v)",
				seed, trial, cf, offF, ct, offT, opts.Topo != nil)

			// Healthy transition.
			comparePlanners(t, label, from, to, opts)

			// Fail-stop transition: kill a random strict subset of the
			// source devices, recover with StorageFallback. Depending on
			// what died this exercises replica recovery, storage reads,
			// or (without fallback) identical error behavior.
			nFail := 1 + rng.Intn(len(from.Devices))
			if nFail == len(from.Devices) {
				nFail--
			}
			if nFail > 0 {
				perm := rng.Perm(len(from.Devices))
				var failed []cluster.DeviceID
				for _, i := range perm[:nFail] {
					failed = append(failed, from.Devices[i])
				}
				degraded := from.WithoutDevices(failed...)
				fopts := opts
				fopts.StorageFallback = rng.Intn(4) != 0
				comparePlanners(t, label+fmt.Sprintf(" failed=%v fallback=%v", failed, fopts.StorageFallback),
					degraded, to, fopts)
			}
		}
	}
}

// TestPlanEquivalenceMoE covers expert-parallel PTC reshapes, whose
// slicing function is the identity (whole-tensor expert groups).
func TestPlanEquivalenceMoE(t *testing.T) {
	m := model.MoECustom(3, 16, 8)
	shapes := []parallel.MoEConfig{
		{EP: 2, DP: 1}, {EP: 4, DP: 1}, {EP: 8, DP: 1},
		{EP: 2, DP: 2}, {EP: 4, DP: 2}, {EP: 2, DP: 4},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		cf := shapes[rng.Intn(len(shapes))]
		ct := shapes[rng.Intn(len(shapes))]
		from, err := parallel.BuildMoEPTC(m, cf, allocFrom(rng.Intn(3), cf.WorldSize()))
		if err != nil {
			t.Fatal(err)
		}
		to, err := parallel.BuildMoEPTC(m, ct, allocFrom(rng.Intn(3), ct.WorldSize()))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("moe trial %d %v -> %v", trial, cf, ct)
		comparePlanners(t, label, from, to, core.PlanOptions{})
	}
}

// sequenceBatch describes a batch of data sample tensors for sequence
// parallelism: each sample is a [seqLen, features] tensor.
type sequenceBatch struct {
	samples          []string
	seqLen, features int
	dtype            tensor.DType
}

// buildSequencePTC expresses sequence parallelism with the PTC
// functions: like tensor parallelism, σ slices tensors — but it slices
// the data sample tensors along the sequence dimension instead of the
// model tensors (§4.3). Rank r of len(alloc) holds rows
// SplitRanges(seqLen, len(alloc))[r] of every sample.
func buildSequencePTC(t *testing.T, batch sequenceBatch, alloc cluster.Allocation) *core.PTC {
	t.Helper()
	ptc := core.NewPTC(fmt.Sprintf("SP=%d", len(alloc)), alloc)
	for _, s := range batch.samples {
		ptc.AddTensor(core.TensorMeta{ID: core.TensorID(s), DType: batch.dtype, Shape: []int{batch.seqLen, batch.features}})
	}
	ranges := tensor.SplitRanges(batch.seqLen, len(alloc))
	for r, dev := range alloc {
		for _, s := range batch.samples {
			ptc.Assign(dev, core.TensorID(s), tensor.Region{ranges[r], {Lo: 0, Hi: batch.features}})
		}
	}
	if err := ptc.Validate(); err != nil {
		t.Fatal(err)
	}
	return ptc
}

// TestPlanEquivalenceSequence covers sequence-parallel sample tensors,
// which slice along the sequence (first) dimension; a shrink merges
// sequence slices.
func TestPlanEquivalenceSequence(t *testing.T) {
	batch := sequenceBatch{
		samples: []string{"sample.0", "sample.1", "sample.2"},
		seqLen:  24, features: 4, dtype: tensor.Float32,
	}
	degrees := []int{1, 2, 3, 4, 6}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		sf := degrees[rng.Intn(len(degrees))]
		st := degrees[rng.Intn(len(degrees))]
		from := buildSequencePTC(t, batch, alloc(sf))
		to := buildSequencePTC(t, batch, alloc(st))
		label := fmt.Sprintf("seq trial %d SP%d -> SP%d", trial, sf, st)
		comparePlanners(t, label, from, to, core.PlanOptions{})
		if st < sf {
			plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Stats(nil).Merges == 0 {
				t.Fatalf("%s: a shrink should merge sequence slices", label)
			}
		}
	}
}

// TestPlanEquivalenceFullScale pins equivalence on the exact benchmark
// workload, so the measured configuration is also the verified one.
func TestPlanEquivalenceFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale equivalence is slow")
	}
	m := model.GPT3XL().WithAdam()
	topo := cluster.OnPrem16()
	from, err := parallel.BuildPTC(m, parallel.Config{TP: 4, PP: 2, DP: 1}, topo.FirstN(8))
	if err != nil {
		t.Fatal(err)
	}
	to, err := parallel.BuildPTC(m, parallel.Config{TP: 8, PP: 2, DP: 1}, topo.FirstN(16))
	if err != nil {
		t.Fatal(err)
	}
	comparePlanners(t, "fullscale", from, to, core.PlanOptions{Topo: topo})
}
