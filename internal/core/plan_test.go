package core_test

import (
	"math/rand"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/tensor"
)

// --- a materialized executor used to verify plans byte-for-byte ------

// materialize fills every device of the PTC with real sub-tensor bytes
// cut from golden full tensors (seeded deterministically per tensor).
func materialize(p *core.PTC) (golden map[core.TensorID]*tensor.Tensor, placed map[cluster.DeviceID]map[string]*tensor.Tensor) {
	golden = map[core.TensorID]*tensor.Tensor{}
	seed := int64(1)
	for id, meta := range p.Tensors {
		full := tensor.New(meta.DType, meta.Shape...)
		full.FillSeq(float64(seed)*1000, 1)
		seed++
		golden[id] = full
	}
	placed = map[cluster.DeviceID]map[string]*tensor.Tensor{}
	for _, d := range p.Devices {
		placed[d] = map[string]*tensor.Tensor{}
		for _, s := range p.Place[d] {
			placed[d][string(s.Tensor)+s.Region.String()] = golden[s.Tensor].Slice(s.Region)
		}
	}
	return golden, placed
}

// execute applies the plan against materialized state, reading fetched
// ranges out of source sub-tensors exactly as the state transformer
// does, and returns the new per-device materialized state.
func execute(t *testing.T, plan *core.Plan,
	golden map[core.TensorID]*tensor.Tensor,
	placed map[cluster.DeviceID]map[string]*tensor.Tensor,
) map[cluster.DeviceID]map[string]*tensor.Tensor {
	t.Helper()
	out := map[cluster.DeviceID]map[string]*tensor.Tensor{}
	for _, d := range plan.To.Devices {
		out[d] = map[string]*tensor.Tensor{}
	}
	for _, a := range plan.AllAssignments() {
		meta := plan.To.Tensors[a.Tensor]
		merged := tensor.New(meta.DType, a.Region.Shape()...)
		covered := 0
		for _, f := range a.Fetch {
			var data *tensor.Tensor
			switch f.Src.Kind {
			case core.FromDevice:
				src, ok := placed[f.Src.Device][string(a.Tensor)+f.Src.Region.String()]
				if !ok {
					t.Fatalf("plan references missing source %s%v on dev %d", a.Tensor, f.Src.Region, f.Src.Device)
				}
				data = src.Slice(f.Want.Translate(f.Src.Region.Offset()))
			case core.FromStorage:
				data = golden[a.Tensor].Slice(f.Want)
			}
			if _, err := tensor.CopyRegion(merged, f.Want.Translate(a.Region.Offset()), data, tensor.FullRegion(data.Shape())); err != nil {
				t.Fatalf("assemble %s%v: %v", a.Tensor, a.Region, err)
			}
			covered += f.Want.NumElems()
		}
		if covered < merged.NumElems() {
			t.Fatalf("assemble %s%v: fetches cover %d of %d elements", a.Tensor, a.Region, covered, merged.NumElems())
		}
		out[a.Device][string(a.Tensor)+a.Region.String()] = merged
	}
	return out
}

// verify checks that the executed state matches golden slices for the
// target PTC.
func verify(t *testing.T, to *core.PTC, golden map[core.TensorID]*tensor.Tensor,
	state map[cluster.DeviceID]map[string]*tensor.Tensor) {
	t.Helper()
	for _, d := range to.Devices {
		for _, s := range to.Place[d] {
			got, ok := state[d][string(s.Tensor)+s.Region.String()]
			if !ok {
				t.Fatalf("device %d missing %s%v after reconfiguration", d, s.Tensor, s.Region)
			}
			want := golden[s.Tensor].Slice(s.Region)
			if !got.Equal(want) {
				t.Fatalf("device %d holds wrong bytes for %s%v", d, s.Tensor, s.Region)
			}
		}
	}
}

func buildPTC(t *testing.T, m *model.Model, cfg parallel.Config, alloc cluster.Allocation) *core.PTC {
	t.Helper()
	ptc, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return ptc
}

func alloc(n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(i)
	}
	return out
}

func allocFrom(start, n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(start + i)
	}
	return out
}

// --- tests ------------------------------------------------------------

func TestPlanIdentityIsAllNoops(t *testing.T) {
	m := model.GPTCustom(4, 32, 4, 96, 16)
	cfg := parallel.Config{TP: 2, PP: 2, DP: 1}
	from := buildPTC(t, m, cfg, alloc(4))
	to := buildPTC(t, m, cfg, alloc(4))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	if st.MovedBytes != 0 {
		t.Fatalf("identity reconfiguration moved %d bytes", st.MovedBytes)
	}
	if st.Noops != st.Assignments {
		t.Fatalf("identity: %d noops of %d assignments", st.Noops, st.Assignments)
	}
}

func TestPlanScaleOutDataParallelism(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 2}, alloc(2))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	// Device 0 keeps everything local; device 1 receives one replica.
	if st.MovedBytes != m.ParamBytes() {
		t.Fatalf("moved %d bytes, want %d (one replica)", st.MovedBytes, m.ParamBytes())
	}
	golden, placed := materialize(from)
	verify(t, to, golden, execute(t, plan, golden, placed))
}

func TestPlanTensorParallelResharding(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	if st.Splits == 0 {
		t.Fatal("TP reshard must split sub-tensors")
	}
	golden, placed := materialize(from)
	verify(t, to, golden, execute(t, plan, golden, placed))
}

func TestPlanTensorParallelMerge(t *testing.T) {
	// TP 4 -> 2: pairs of sub-tensors merge; destination devices holding
	// one half already must only fetch the other half.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	to := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	if st.Merges == 0 {
		t.Fatal("TP 4->2 must merge sub-tensors")
	}
	golden, placed := materialize(from)
	verify(t, to, golden, execute(t, plan, golden, placed))
}

func TestPlanMinimalityKeepsResidentRanges(t *testing.T) {
	// Scaling DP 2 -> 1 on the device that already holds a replica moves
	// zero bytes.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 2}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := plan.Stats(nil); st.MovedBytes != 0 {
		t.Fatalf("DP scale-in moved %d bytes, want 0", st.MovedBytes)
	}
}

func TestPlanPipelineRepartitionMovesOnlyBoundaryLayers(t *testing.T) {
	m := model.GPTCustom(6, 16, 2, 64, 8) // 8 layers
	from := buildPTC(t, m, parallel.Config{TP: 1, PP: 2, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 4, DP: 1}, alloc(4))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	// Devices 0 and 1 keep the head of their old stages; only layers
	// moving to the two new devices travel. Moved bytes must be well
	// under the total model size.
	if st.MovedBytes >= m.ParamBytes() {
		t.Fatalf("PP repartition moved %d >= model %d", st.MovedBytes, m.ParamBytes())
	}
	if st.Splits != 0 {
		t.Fatalf("pure PP repartition should not split tensors, got %d splits", st.Splits)
	}
	golden, placed := materialize(from)
	verify(t, to, golden, execute(t, plan, golden, placed))
}

func TestPlanRedeploymentToFreshDevices(t *testing.T) {
	// Same parallelization, disjoint device set (Fig. 10's scenario).
	m := model.GPTCustom(4, 32, 4, 96, 16)
	cfg := parallel.Config{TP: 2, PP: 2, DP: 1}
	from := buildPTC(t, m, cfg, alloc(4))
	to := buildPTC(t, m, cfg, allocFrom(4, 4))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	if st.LocalBytes != 0 {
		t.Fatal("disjoint redeployment cannot have local fetches")
	}
	if st.Splits != 0 || st.Merges != 0 {
		t.Fatal("same-config redeployment must be pure moves")
	}
	golden, placed := materialize(from)
	verify(t, to, golden, execute(t, plan, golden, placed))
}

func TestPlanFailureRecoveryFromReplica(t *testing.T) {
	// DP=2 replicas on 4 devices; losing one TP group's devices leaves a
	// full replica, so recovery moves state but never touches storage.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 2}, alloc(4))
	degraded := from.WithoutDevices(2, 3)
	to := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	plan, err := core.GeneratePlan(degraded, to, core.PlanOptions{StorageFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	if st.StorageBytes != 0 {
		t.Fatalf("replica recovery read %d bytes from storage", st.StorageBytes)
	}
	if st.MovedBytes != 0 {
		t.Fatalf("surviving replica is already in place, moved %d", st.MovedBytes)
	}
}

func TestPlanFailureRecoveryFromStorage(t *testing.T) {
	// No replica (DP=1): losing a device forces checkpoint reads for
	// exactly the lost ranges.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	degraded := from.WithoutDevices(1)
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))

	// Without fallback: error.
	if _, err := core.GeneratePlan(degraded, to, core.PlanOptions{}); err == nil {
		t.Fatal("lost state without StorageFallback must fail")
	}
	plan, err := core.GeneratePlan(degraded, to, core.PlanOptions{StorageFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(nil)
	if st.StorageBytes == 0 {
		t.Fatal("expected storage reads for lost ranges")
	}
	if st.StorageBytes >= m.ParamBytes() {
		t.Fatalf("storage reads %d not minimal (model %d)", st.StorageBytes, m.ParamBytes())
	}
	golden, placed := materialize(degraded)
	verify(t, to, golden, execute(t, plan, golden, placed))
}

func TestPlanLocalityPrefersSameWorker(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	// Replicas on devices 0 (worker 0) and 4 (worker 1); a new replica
	// on device 1 (worker 0) should fetch from device 0.
	from := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 2}, cluster.Allocation{0, 4})
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 3}, cluster.Allocation{0, 4, 1})
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	st := plan.Stats(topo)
	if st.CrossWorkerBytes != 0 {
		t.Fatalf("locality-aware plan crossed workers: %+v", st)
	}
	if st.IntraWorkerBytes != m.ParamBytes() {
		t.Fatalf("intra-worker bytes %d, want %d", st.IntraWorkerBytes, m.ParamBytes())
	}
}

func TestPlanBalancesReplicaSources(t *testing.T) {
	// Scaling DP 2 -> 6 should spread the fetch load over both existing
	// replicas rather than hammering one.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 2}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 6}, alloc(6))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sent := map[cluster.DeviceID]int64{}
	for _, a := range plan.Assignments {
		meta := plan.To.Tensors[a.Tensor]
		for _, f := range a.Fetch {
			if f.Src.Kind == core.FromDevice && f.Src.Device != a.Device {
				sent[f.Src.Device] += f.Want.NumBytes(meta.DType)
			}
		}
	}
	if sent[0] == 0 || sent[1] == 0 {
		t.Fatalf("load not balanced: %v", sent)
	}
	ratio := float64(sent[0]) / float64(sent[1])
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("replica send load unbalanced: %v", sent)
	}
}

func TestPlanRejectsMetadataMismatch(t *testing.T) {
	a := core.NewPTC("a", devs(0))
	a.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float32, Shape: []int{4}})
	a.Assign(0, "w", tensor.FullRegion([]int{4}))
	b := core.NewPTC("b", devs(0))
	b.AddTensor(core.TensorMeta{ID: "w", DType: tensor.Float64, Shape: []int{4}})
	b.Assign(0, "w", tensor.FullRegion([]int{4}))
	if _, err := core.GeneratePlan(a, b, core.PlanOptions{}); err == nil {
		t.Fatal("dtype mismatch accepted")
	}
	c := core.NewPTC("c", devs(0))
	c.AddTensor(core.TensorMeta{ID: "v", DType: tensor.Float32, Shape: []int{4}})
	c.Assign(0, "v", tensor.FullRegion([]int{4}))
	if _, err := core.GeneratePlan(a, c, core.PlanOptions{}); err == nil {
		t.Fatal("unknown tensor accepted")
	}
}

// TestPlanRandomReconfigurations is the package's central property test:
// arbitrary (T,P,D) -> (T',P',D') transitions over random device sets
// always produce a valid plan whose execution reconstructs exact bytes.
func TestPlanRandomReconfigurations(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8) // 6 layers
	rng := rand.New(rand.NewSource(2024))
	cfgs := []parallel.Config{}
	for _, n := range []int{1, 2, 4, 6, 8} {
		cfgs = append(cfgs, parallel.Enumerate(n, 8, 6)...)
	}
	for trial := 0; trial < 60; trial++ {
		cf := cfgs[rng.Intn(len(cfgs))]
		ct := cfgs[rng.Intn(len(cfgs))]
		offF, offT := rng.Intn(3), rng.Intn(3)
		from := buildPTC(t, m, cf, allocFrom(offF, cf.WorldSize()))
		to := buildPTC(t, m, ct, allocFrom(offT, ct.WorldSize()))
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
		if err != nil {
			t.Fatalf("trial %d %v->%v: %v", trial, cf, ct, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("trial %d %v->%v: %v", trial, cf, ct, err)
		}
		golden, placed := materialize(from)
		verify(t, to, golden, execute(t, plan, golden, placed))
	}
}

func TestPlanFlows(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	cfg := parallel.Config{TP: 2, PP: 1, DP: 1}
	from := buildPTC(t, m, cfg, cluster.Allocation{0, 1})
	to := buildPTC(t, m, cfg, cluster.Allocation{4, 5})
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	flows := plan.Flows(topo)
	if len(flows) == 0 {
		t.Fatal("no flows for redeployment")
	}
	var bytes int64
	for _, f := range flows {
		bytes += f.Bytes
	}
	st := plan.Stats(topo)
	if bytes != st.MovedBytes {
		t.Fatalf("flow bytes %d != moved bytes %d", bytes, st.MovedBytes)
	}
}
