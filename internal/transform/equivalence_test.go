package transform

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// The streamed zero-copy pipeline is an optimization of the
// materialized reference pipeline (reference_test.go), not a redesign:
// after Apply, every destination store must hold byte-identical state
// whichever of the two executed the plan. These property tests pin that down over randomized
// grow / shrink / redeploy / fail-stop transitions, mirroring the
// planner equivalence methodology of internal/core.

// allocFrom returns n device IDs starting at off.
func allocFrom(off, n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(off + i)
	}
	return out
}

func TestApplyEquivalenceRandomized(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8) // 6 layers incl. embeddings
	var cfgs []parallel.Config
	for _, n := range []int{1, 2, 4, 6, 8} {
		cfgs = append(cfgs, parallel.Enumerate(n, 8, 6)...)
	}
	trials := 0
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			cf := cfgs[rng.Intn(len(cfgs))]
			ct := cfgs[rng.Intn(len(cfgs))]
			offF, offT := rng.Intn(3), rng.Intn(3)
			from, err := parallel.BuildPTC(m, cf, allocFrom(offF, cf.WorldSize()))
			if err != nil {
				t.Fatal(err)
			}
			to, err := parallel.BuildPTC(m, ct, allocFrom(offT, ct.WorldSize()))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed %d trial %d %v@%d -> %v@%d", seed, trial, cf, offF, ct, offT)

			// Healthy transition.
			plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			runEquivalenceTrial(t, label, m, from, to, plan, nil)
			trials++

			// Fail-stop transition: kill a strict subset of source
			// devices and recover with StorageFallback, which mixes
			// storage range-reads into the plan.
			nFail := 1 + rng.Intn(len(from.Devices))
			if nFail >= len(from.Devices) {
				nFail = len(from.Devices) - 1
			}
			if nFail > 0 {
				perm := rng.Perm(len(from.Devices))
				var failed []cluster.DeviceID
				for _, i := range perm[:nFail] {
					failed = append(failed, from.Devices[i])
				}
				degraded := from.WithoutDevices(failed...)
				fplan, err := core.GeneratePlan(degraded, to, core.PlanOptions{StorageFallback: true})
				if err != nil {
					t.Fatalf("%s failstop: %v", label, err)
				}
				runEquivalenceTrial(t, label+" failstop", m, degraded, to, fplan, failed)
				trials++
			}
		}
	}
	if trials < 100 {
		t.Fatalf("only %d randomized scenarios, want >= 100", trials)
	}
}

// runEquivalenceTrial seeds two independent store sets with identical
// golden state, applies the plan through the streamed and materialized
// pipelines, and requires identical outcomes and identical resulting
// bytes on every device that exists in either PTC.
func runEquivalenceTrial(t *testing.T, label string, m *model.Model,
	from, to *core.PTC, plan *core.Plan, failed []cluster.DeviceID) {
	t.Helper()
	const job = "eqv"
	maxDev := cluster.DeviceID(0)
	for _, d := range append(append([]cluster.DeviceID{}, from.Devices...), to.Devices...) {
		if d > maxDev {
			maxDev = d
		}
	}
	devs := alloc(int(maxDev) + 1)
	golden := goldenState(from)
	storage := memStorage(golden)

	run := func(apply applyFunc) (map[cluster.DeviceID]store.Access, Stats, error) {
		stores := localStores(devs)
		if err := LoadPTC(job, from, stores, golden); err != nil {
			t.Fatalf("%s: load: %v", label, err)
		}
		tr := &Transformer{Job: job, Stores: stores, Storage: storage, Parallelism: 4}
		st, err := apply(tr, plan)
		return stores, st, err
	}
	sStores, sStats, sErr := run((*Transformer).Apply)
	mStores, _, mErr := run((*Transformer).applyMaterialized)
	if (sErr == nil) != (mErr == nil) {
		t.Fatalf("%s: outcome mismatch: streamed=%v materialized=%v", label, sErr, mErr)
	}
	if sErr != nil {
		return
	}
	// The streamed path must not copy more than it fetched (local
	// stores retain uploads by reference); memStorage lacks the
	// scatter interface, so storage bytes may legitimately cost one
	// extra copy.
	if sStats.BytesCopied > sStats.PlanBytes()+sStats.StorageBytes {
		t.Fatalf("%s: streamed copied %d bytes for %d plan bytes (%d from storage)",
			label, sStats.BytesCopied, sStats.PlanBytes(), sStats.StorageBytes)
	}
	// Byte-identical post-state everywhere: destination partitions,
	// departed devices, and the golden ground truth.
	for _, d := range to.Devices {
		for _, s := range to.Place[d] {
			want := golden[s.Tensor].Slice(s.Region)
			for which, stores := range map[string]map[cluster.DeviceID]store.Access{"streamed": sStores, "materialized": mStores} {
				got, err := stores[d].Query(ModelPath(job, d, s.Tensor), nil)
				if err != nil {
					t.Fatalf("%s: %s dev %d missing %s: %v", label, which, d, s.Tensor, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: %s dev %d wrong bytes for %s%v", label, which, d, s.Tensor, s.Region)
				}
			}
		}
	}
	for _, d := range from.Devices {
		inTo := false
		for _, td := range to.Devices {
			if td == d {
				inTo = true
			}
		}
		if inTo {
			continue
		}
		_, errS := sStores[d].List(ModelRoot(job))
		_, errM := mStores[d].List(ModelRoot(job))
		if (errS == nil) != (errM == nil) {
			t.Fatalf("%s: departed device %d cleanup differs (streamed err=%v, materialized err=%v)", label, d, errS, errM)
		}
	}
}

// TestApplyEquivalenceOverREST repeats a handful of transitions with
// half the stores behind real HTTP servers, proving the wire-streaming
// path (range reads served from the stored buffer, uploads decoded
// incrementally) is byte-identical too.
func TestApplyEquivalenceOverREST(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	cases := []struct {
		from, to parallel.Config
		nf, nt   int
	}{
		{parallel.Config{TP: 2, PP: 1, DP: 1}, parallel.Config{TP: 4, PP: 1, DP: 1}, 2, 4},
		{parallel.Config{TP: 1, PP: 2, DP: 1}, parallel.Config{TP: 2, PP: 2, DP: 1}, 2, 4},
		{parallel.Config{TP: 2, PP: 1, DP: 2}, parallel.Config{TP: 2, PP: 1, DP: 1}, 4, 2},
	}
	const job = "eqv"
	for ci, c := range cases {
		from := buildPTC(t, m, c.from, alloc(c.nf))
		to := buildPTC(t, m, c.to, alloc(c.nt))
		golden := goldenState(from)
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n := c.nf
		if c.nt > n {
			n = c.nt
		}
		var servers []*httptest.Server
		run := func(which string, apply applyFunc) map[cluster.DeviceID]store.Access {
			stores := map[cluster.DeviceID]store.Access{}
			for d := 0; d < n; d++ {
				fs := store.NewMemFS()
				if d%2 == 0 {
					stores[cluster.DeviceID(d)] = store.Local{FS: fs}
					continue
				}
				hs := httptest.NewServer(store.NewServer(fs))
				servers = append(servers, hs)
				stores[cluster.DeviceID(d)] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
			}
			if err := LoadPTC(job, from, stores, golden); err != nil {
				t.Fatal(err)
			}
			tr := &Transformer{Job: job, Stores: stores}
			if _, err := apply(tr, plan); err != nil {
				t.Fatalf("case %d %s: %v", ci, which, err)
			}
			return stores
		}
		sStores := run("streamed", (*Transformer).Apply)
		mStores := run("materialized", (*Transformer).applyMaterialized)
		for _, d := range to.Devices {
			for _, s := range to.Place[d] {
				want := golden[s.Tensor].Slice(s.Region)
				sGot, err := sStores[d].Query(ModelPath(job, d, s.Tensor), nil)
				if err != nil {
					t.Fatalf("case %d: streamed dev %d: %v", ci, d, err)
				}
				mGot, err := mStores[d].Query(ModelPath(job, d, s.Tensor), nil)
				if err != nil {
					t.Fatalf("case %d: materialized dev %d: %v", ci, d, err)
				}
				if !sGot.Equal(want) || !mGot.Equal(want) {
					t.Fatalf("case %d: dev %d bytes diverge for %s%v", ci, d, s.Tensor, s.Region)
				}
			}
		}
		for _, hs := range servers {
			hs.Close()
		}
	}
}

// datapathWorkload is a reconfiguration of ~1.1 MB of real state over
// in-process stores.
type datapathWorkload struct {
	name   string
	from   *core.PTC
	plan   *core.Plan
	golden map[core.TensorID]*tensor.Tensor
	devs   int
	bytes  int64 // the model's state
}

// datapathWorkloads are the two plans the copy accounting is pinned on:
// a TP 2->4 re-shard and a DP scale-out planned against a topology.
func datapathWorkloads(tb testing.TB) []datapathWorkload {
	tb.Helper()
	m := model.GPTCustom(4, 128, 4, 512, 32)
	var out []datapathWorkload
	for _, c := range []struct {
		name     string
		from, to parallel.Config
		opts     core.PlanOptions
	}{
		{"tp-reshard", parallel.Config{TP: 2, PP: 1, DP: 1}, parallel.Config{TP: 4, PP: 1, DP: 1}, core.PlanOptions{}},
		{"dp-scaleout", parallel.Config{TP: 2, PP: 2, DP: 1}, parallel.Config{TP: 2, PP: 2, DP: 2}, core.PlanOptions{Topo: cluster.OnPrem16()}},
	} {
		from, err := parallel.BuildPTC(m, c.from, alloc(c.from.WorldSize()))
		if err != nil {
			tb.Fatal(err)
		}
		to, err := parallel.BuildPTC(m, c.to, alloc(c.to.WorldSize()))
		if err != nil {
			tb.Fatal(err)
		}
		plan, err := core.GeneratePlan(from, to, c.opts)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, datapathWorkload{c.name, from, plan, goldenState(from), c.to.WorldSize(), m.ParamBytes()})
	}
	return out
}

// TestApplyCopiesEachPlanByteOnce: over stores that retain uploads by
// reference Apply copies every plan byte at most once (copy
// amplification <= 1), where the fetch-then-assemble reference pays at
// least twice for the same plan bytes.
func TestApplyCopiesEachPlanByteOnce(t *testing.T) {
	for _, w := range datapathWorkloads(t) {
		run := func(apply applyFunc) Stats {
			stores := localStores(alloc(w.devs))
			if err := LoadPTC("amp", w.from, stores, w.golden); err != nil {
				t.Fatal(err)
			}
			st, err := apply(&Transformer{Job: "amp", Stores: stores}, w.plan)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return st
		}
		st, ref := run((*Transformer).Apply), run((*Transformer).applyMaterialized)
		if st.PlanBytes() == 0 || st.PlanBytes() != ref.PlanBytes() {
			t.Fatalf("%s: plan bytes %d, reference %d", w.name, st.PlanBytes(), ref.PlanBytes())
		}
		if st.BytesCopied > st.PlanBytes() {
			t.Errorf("%s: copied %d bytes for %d plan bytes", w.name, st.BytesCopied, st.PlanBytes())
		}
		if ref.BytesCopied < 2*ref.PlanBytes() {
			t.Errorf("%s: the reference copied %d bytes for %d plan bytes, under its 2x", w.name, ref.BytesCopied, ref.PlanBytes())
		}
	}
}
