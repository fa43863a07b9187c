package job

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

func tinyGPT() *model.Model { return model.GPTCustom(4, 16, 2, 32, 8) }

// tree is everything one store holds under dir: path -> tensor, found by
// List and read by Query, so two store kinds are compared through the
// interface a job sees.
func tree(t *testing.T, acc store.Access, dir string, out map[string]*tensor.Tensor) {
	t.Helper()
	names, err := acc.List(dir)
	if err != nil {
		return // no such directory: this store holds nothing of the job
	}
	for _, name := range names {
		path := dir + "/" + strings.TrimSuffix(name, "/")
		if strings.HasSuffix(name, "/") {
			tree(t, acc, path, out)
			continue
		}
		ten, err := acc.Query(path, nil)
		if err != nil {
			t.Fatalf("query %s: %v", path, err)
		}
		out[path] = ten
	}
}

// lifecycle drives one Runtime through every phase over the given
// stores and returns, per phase, every device's tree.
func lifecycle(t *testing.T, topo *cluster.Topology, stores map[cluster.DeviceID]store.Access) []map[string]*tensor.Tensor {
	t.Helper()
	ctx := context.Background()
	m := tinyGPT()
	rt := &Runtime{Name: "life", Model: m, Topo: topo, Stores: stores, Storage: store.Local{FS: store.NewMemFS()}}
	const seed = 7

	var snaps []map[string]*tensor.Tensor
	check := func(phase string, cfg parallel.Config, alloc cluster.Allocation) {
		t.Helper()
		if err := rt.Verify(ctx, seed); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if rt.Config != cfg || fmt.Sprint(rt.Alloc) != fmt.Sprint(alloc) {
			t.Fatalf("%s: runtime on %v %v, want %v %v", phase, rt.Config, rt.Alloc, cfg, alloc)
		}
		snap := map[string]*tensor.Tensor{}
		for d, acc := range stores {
			sub := map[string]*tensor.Tensor{}
			tree(t, acc, "/job", sub)
			for p, ten := range sub {
				snap[fmt.Sprintf("dev%d%s", d, p)] = ten
			}
		}
		snaps = append(snaps, snap)
	}
	change := func(phase string, cfg parallel.Config, alloc cluster.Allocation, failed []cluster.DeviceID) *Change {
		t.Helper()
		ch, err := Plan(m, topo, rt.PTC, cfg, alloc, failed)
		if err != nil {
			t.Fatalf("%s: plan: %v", phase, err)
		}
		if _, err := rt.Apply(ctx, ch); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if err := rt.Checkpoint(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		check(phase, cfg, alloc)
		return ch
	}

	// Deploy, and the seed baseline. The caller's slice stays the caller's.
	cfg, alloc := parallel.Config{TP: 2, PP: 1, DP: 1}, cluster.Allocation{0, 1}
	ptc, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	mine := append(cluster.Allocation(nil), alloc...)
	if err := rt.DeploySeed(ctx, ptc, cfg, mine, seed); err != nil {
		t.Fatal(err)
	}
	mine[0] = 15
	check("deploy", cfg, alloc)

	// Two ordinary changes: pipeline split onto four devices, then a
	// second replica.
	change("scale-out", parallel.Config{TP: 2, PP: 2, DP: 1}, cluster.Allocation{0, 1, 2, 3}, nil)
	dp2 := parallel.Config{TP: 2, PP: 1, DP: 2}
	change("replicate", dp2, cluster.Allocation{0, 1, 2, 3}, nil)

	// Fail-stop: both holders of TP rank 0 die and take their model
	// trees with them. Rank 1 survives on a device, rank 0 only in the
	// checkpoint, whose copy of it is on a device that did not hold it.
	failed := []cluster.DeviceID{0, 2}
	for _, d := range failed {
		if err := stores[d].Delete(transform.ModelRoot(rt.Name)); err != nil {
			t.Fatal(err)
		}
	}
	rec := change("failstop", dp2, cluster.Allocation{1, 3, 4, 5}, failed)
	if rec.Stats.StorageBytes == 0 || rec.Stats.StorageBytes >= rec.Stats.MovedBytes {
		t.Fatalf("failstop: %d of %d moved bytes from the checkpoint, want some and not all",
			rec.Stats.StorageBytes, rec.Stats.MovedBytes)
	}

	// A change whose source has vanished fails, leaves the placement where
	// it was, and is undone by Rollback.
	before := rt.PTC
	ch, err := Plan(m, topo, rt.PTC, dp2, cluster.Allocation{8, 9, 10, 11}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := stores[1].Delete(transform.ModelRoot(rt.Name)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Apply(ctx, ch); err == nil {
		t.Fatal("apply from a wiped source succeeded")
	}
	if rt.PTC != before {
		t.Fatal("a failed apply advanced the placement")
	}
	if err := rt.Verify(ctx, seed); err == nil {
		t.Fatal("state verified with a device's tensors gone")
	}
	if err := rt.Rollback(); err != nil {
		t.Fatal(err)
	}
	check("rollback", dp2, cluster.Allocation{1, 3, 4, 5})

	// Restore from the checkpoint onto devices that held nothing.
	cfg, alloc = parallel.Config{TP: 1, PP: 2, DP: 2}, cluster.Allocation{12, 13, 14, 15}
	re, err := PlanRestore(m, topo, cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Restore(re); err != nil {
		t.Fatal(err)
	}
	if err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check("restore", cfg, alloc)
	if rt.Step != 4 {
		t.Fatalf("checkpoint step %d after four checkpoints", rt.Step)
	}

	rt.Release()
	if rt.Model != nil || rt.PTC != nil || rt.Stores != nil || rt.Storage != nil {
		t.Fatal("release left state behind")
	}
	return snaps
}

// TestLifecycleLocalAndWire: every phase of a job's life, over
// in-process stores and over tenplex-store servers on loopback, ends
// bit-identical to the initial state, and the two store kinds hold the
// same trees after every phase.
func TestLifecycleLocalAndWire(t *testing.T) {
	topo := cluster.OnPrem16()
	local, wire := map[cluster.DeviceID]store.Access{}, map[cluster.DeviceID]store.Access{}
	for _, d := range topo.Devices {
		local[d.ID] = store.Local{FS: store.NewMemFS()}
		hs := httptest.NewServer(store.NewServer(store.NewMemFS()))
		t.Cleanup(hs.Close)
		wire[d.ID] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
	}
	a, b := lifecycle(t, topo, local), lifecycle(t, topo, wire)
	for i := range a {
		if len(a[i]) == 0 || len(a[i]) != len(b[i]) {
			t.Fatalf("phase %d: %d tensors on local stores, %d on wire stores", i, len(a[i]), len(b[i]))
		}
		for path, want := range a[i] {
			if got := b[i][path]; got == nil || !got.Equal(want) {
				t.Fatalf("phase %d: %s differs between local and wire stores", i, path)
			}
		}
	}
}

// errManifestGone marks a checkpoint manifest that is no longer there.
var errManifestGone = errors.New("manifest gone")

// manifestGone is checkpoint storage whose failed blob reads wrap
// errManifestGone around the store's own error.
type manifestGone struct{ store.Local }

func (m manifestGone) GetBlob(path string) ([]byte, error) {
	b, err := m.Local.GetBlob(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errManifestGone, err)
	}
	return b, nil
}

// A fail-stop Apply whose checkpoint cannot be opened fails with the
// reason the open failed, not with a missing storage reader, and leaves
// the placement where it was; one whose surviving replicas hold every
// range needs no checkpoint and applies.
func TestApplyFailStopWithoutManifest(t *testing.T) {
	ctx := context.Background()
	topo := cluster.OnPrem16()
	m := tinyGPT()
	const seed = 7
	for _, sc := range []struct {
		name            string
		cfg             parallel.Config
		alloc, next     cluster.Allocation
		readsCheckpoint bool
	}{
		{"only copy lost", parallel.Config{TP: 2, PP: 1, DP: 1}, cluster.Allocation{0, 1}, cluster.Allocation{1, 2}, true},
		{"a replica survives", parallel.Config{TP: 2, PP: 1, DP: 2}, cluster.Allocation{0, 1, 2, 3}, cluster.Allocation{1, 2, 3, 4}, false},
	} {
		stores := map[cluster.DeviceID]store.Access{}
		for _, d := range topo.Devices {
			stores[d.ID] = store.Local{FS: store.NewMemFS()}
		}
		storage := manifestGone{store.Local{FS: store.NewMemFS()}}
		rt := &Runtime{Name: "lost", Model: m, Topo: topo, Stores: stores, Storage: storage}
		ptc, err := parallel.BuildPTC(m, sc.cfg, sc.alloc)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.DeploySeed(ctx, ptc, sc.cfg, sc.alloc, seed); err != nil {
			t.Fatal(err)
		}
		steps, err := storage.List("/ckpt/lost")
		if err != nil {
			t.Fatal(err)
		}
		deleted := 0
		for _, s := range steps {
			if strings.HasSuffix(s, "/") && storage.Delete("/ckpt/lost/"+s+"meta.json") == nil {
				deleted++
			}
		}
		if deleted == 0 {
			t.Fatalf("%s: no manifest found under /ckpt/lost: %v", sc.name, steps)
		}
		if err := stores[0].Delete(transform.ModelRoot(rt.Name)); err != nil {
			t.Fatal(err)
		}
		ch, err := Plan(m, topo, rt.PTC, sc.cfg, sc.next, []cluster.DeviceID{0})
		if err != nil {
			t.Fatal(err)
		}
		if got := ch.Stats.StorageBytes > 0; got != sc.readsCheckpoint {
			t.Fatalf("%s: plan reads the checkpoint: %v, want %v", sc.name, got, sc.readsCheckpoint)
		}
		before := rt.PTC
		_, err = rt.Apply(ctx, ch)
		if !sc.readsCheckpoint {
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			if err := rt.Verify(ctx, seed); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			continue
		}
		if !errors.Is(err, errManifestGone) || strings.Contains(fmt.Sprint(err), "no StorageReader") {
			t.Fatalf("%s: Apply returned %v, want the failed checkpoint open", sc.name, err)
		}
		if rt.PTC != before {
			t.Fatalf("%s: a failed apply advanced the placement", sc.name)
		}
	}
}

// With two tensors corrupted on their store, Verify names the same one,
// the first by ID, every time.
func TestVerifyNamesTheFirstBadTensor(t *testing.T) {
	ctx := context.Background()
	m := tinyGPT()
	stores := map[cluster.DeviceID]store.Access{0: store.Local{FS: store.NewMemFS()}}
	rt := &Runtime{Name: "bad", Model: m, Stores: stores, Storage: store.Local{FS: store.NewMemFS()}}
	cfg, alloc := parallel.Config{TP: 1, PP: 1, DP: 1}, cluster.Allocation{0}
	ptc, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.DeploySeed(ctx, ptc, cfg, alloc, 7); err != nil {
		t.Fatal(err)
	}
	golden := InitState(m, 7)
	ids := slices.Sorted(maps.Keys(golden))
	for _, id := range []core.TensorID{ids[len(ids)-1], ids[len(ids)/2]} {
		bad := golden[id].Clone()
		bad.FillSeq(1, 1)
		if err := stores[0].Upload(transform.ModelPath(rt.Name, 0, id), bad); err != nil {
			t.Fatal(err)
		}
	}
	first := fmt.Sprintf("corrupted tensor %s", ids[len(ids)/2])
	for i := 0; i < 20; i++ {
		if err := rt.Verify(ctx, 7); err == nil || err.Error() != first {
			t.Fatalf("run %d: Verify returned %v, want %q", i, err, first)
		}
	}
}

// A malformed allocation is refused before anything is built or
// written: a device listed twice, one the topology does not have, one
// marked failed, one whose state a fail-stop change recovers, and — for
// a deploy — one without a store.
func TestMalformedAllocationsRefused(t *testing.T) {
	m := tinyGPT()
	topo := cluster.OnPrem16()
	topo.MarkFailed(9)
	dp2 := parallel.Config{TP: 1, PP: 1, DP: 2}
	from, err := parallel.BuildPTC(m, dp2, cluster.Allocation{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		alloc  cluster.Allocation
		failed []cluster.DeviceID
		want   string
	}{
		{cluster.Allocation{2, 2}, nil, "device 2 listed twice"},
		{cluster.Allocation{2, 16}, nil, "device 16 is not in topology"},
		{cluster.Allocation{-1, 2}, nil, "device -1 is not in topology"},
		{cluster.Allocation{2, 9}, nil, "device 9 has failed"},
		{cluster.Allocation{1, 2}, []cluster.DeviceID{1}, "device 1 has failed"},
	} {
		if _, err := Plan(m, topo, from, dp2, c.alloc, c.failed); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Plan onto %v, failed %v: %v, want %q", c.alloc, c.failed, err, c.want)
		}
		if c.failed == nil {
			if _, err := PlanRestore(m, topo, dp2, c.alloc); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("PlanRestore onto %v: %v, want %q", c.alloc, err, c.want)
			}
		}
	}

	stores := map[cluster.DeviceID]store.Access{0: store.Local{FS: store.NewMemFS()}}
	rt := &Runtime{Name: "bad", Model: m, Topo: topo, Stores: stores}
	if err := rt.Deploy(from, dp2, cluster.Allocation{0, 1}, InitState(m, 1)); err == nil ||
		!strings.Contains(err.Error(), "device 1 has no store") {
		t.Errorf("Deploy onto a device without a store: %v", err)
	}
	stores[1] = store.Local{FS: store.NewMemFS()}
	rt.Topo = cluster.New("one-device", 1, 1, cluster.LinkConfig{})
	if err := rt.Deploy(from, dp2, cluster.Allocation{0, 1}, InitState(m, 1)); err == nil ||
		!strings.Contains(err.Error(), "device 1 is not in topology") {
		t.Errorf("Deploy onto a device outside the topology: %v", err)
	}
}

// TestFailStopWithStoreGone: a device fails and its store goes with it —
// its model tree, the checkpoint pieces it kept for other devices,
// everything; every operation on it fails, checkpoint reads included.
// The job recovers bit-identically from what the other stores keep:
// once from a checkpoint taken after a reconfiguration onto two
// workers, whose pieces of the lost device sit on the other worker, and
// once from the seed baseline, before any checkpoint. Then it
// checkpoints its new placement and verifies again. Over in-process
// stores and over tenplex-store servers.
func TestFailStopWithStoreGone(t *testing.T) {
	ctx := context.Background()
	m := tinyGPT()
	const seed = 11
	gone := func(ctx context.Context, op store.Op) (store.Op, error) {
		return op, fmt.Errorf("device failed: %s %s", op.Name, op.Path)
	}
	for _, wire := range []bool{false, true} {
		for _, reconfigure := range []bool{true, false} {
			name := fmt.Sprintf("wire=%v reconfigure=%v", wire, reconfigure)
			topo := cluster.OnPrem16()
			stores := map[cluster.DeviceID]store.Access{}
			for _, d := range topo.Devices {
				stores[d.ID] = store.Local{FS: store.NewMemFS()}
				if wire {
					hs := httptest.NewServer(store.NewServer(store.NewMemFS()))
					t.Cleanup(hs.Close)
					stores[d.ID] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
				}
			}
			rt := &Runtime{Name: "gone", Model: m, Topo: topo, Stores: stores, Storage: store.Local{FS: store.NewMemFS()}}
			cfg, alloc := parallel.Config{TP: 2, PP: 1, DP: 1}, cluster.Allocation{0, 1}
			ptc, err := parallel.BuildPTC(m, cfg, alloc)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.DeploySeed(ctx, ptc, cfg, alloc, seed); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if reconfigure {
				cfg, alloc = parallel.Config{TP: 2, PP: 2, DP: 1}, cluster.Allocation{0, 1, 4, 5}
				ch, err := Plan(m, topo, rt.PTC, cfg, alloc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Apply(ctx, ch); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if err := rt.Checkpoint(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}

			failed := rt.PTC.Devices[0]
			stores[failed] = store.Wrap(stores[failed], gone)
			var next cluster.Allocation
			for _, d := range append(slices.Clone(alloc), 8, 9) {
				if d != failed && len(next) < len(alloc) {
					next = append(next, d)
				}
			}
			ch, err := Plan(m, topo, rt.PTC, cfg, next, []cluster.DeviceID{failed})
			if err != nil {
				t.Fatal(err)
			}
			if ch.Stats.StorageBytes == 0 {
				t.Fatalf("%s: the recovery reads nothing from the checkpoint", name)
			}
			if _, err := rt.Apply(ctx, ch); err != nil {
				t.Fatalf("%s: recovery: %v", name, err)
			}
			if err := rt.Verify(ctx, seed); err != nil {
				t.Fatalf("%s: after recovery: %v", name, err)
			}
			if err := rt.Checkpoint(); err != nil {
				t.Fatalf("%s: checkpoint after recovery: %v", name, err)
			}
			if err := rt.Rollback(); err != nil {
				t.Fatalf("%s: rollback to the checkpoint after recovery: %v", name, err)
			}
			if err := rt.Verify(ctx, seed); err != nil {
				t.Fatalf("%s: after rollback: %v", name, err)
			}
		}
	}
}

// TestReleaseAfterFailStop: a device a fail-stop took away may keep its
// store — the device failed, not the store daemon — and the model tree
// the job held there when it failed; once the job is released, that
// store holds nothing under the job's model root either.
func TestReleaseAfterFailStop(t *testing.T) {
	ctx := context.Background()
	m, topo := tinyGPT(), cluster.OnPrem16()
	stores := map[cluster.DeviceID]store.Access{}
	for _, d := range topo.Devices {
		stores[d.ID] = store.Local{FS: store.NewMemFS()}
	}
	rt := &Runtime{Name: "left", Model: m, Topo: topo, Stores: stores, Storage: store.Local{FS: store.NewMemFS()}}
	cfg, alloc := parallel.Config{TP: 2, PP: 1, DP: 1}, cluster.Allocation{0, 1}
	ptc, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.DeploySeed(ctx, ptc, cfg, alloc, 3); err != nil {
		t.Fatal(err)
	}
	ch, err := Plan(m, topo, rt.PTC, cfg, cluster.Allocation{1, 8}, []cluster.DeviceID{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Apply(ctx, ch); err != nil {
		t.Fatal(err)
	}
	if names, _ := stores[0].List(transform.ModelRoot(rt.Name)); len(names) == 0 {
		t.Fatal("the failed device's store holds no model tree: nothing for Release to delete")
	}
	rt.Release()
	for _, d := range topo.Devices {
		if names, _ := stores[d.ID].List(transform.ModelRoot("left")); len(names) != 0 {
			t.Errorf("device %d still holds %v under the model root after Release", d.ID, names)
		}
	}
}

// A state several chunks large, replicated, deployed over
// tenplex-store servers and over in-process stores, lands as
// InitState placed by LoadPTC would put it; Verify passes it and names
// a tensor corrupted in its last chunk.
func TestDeploySeedInChunks(t *testing.T) {
	ctx := context.Background()
	m := model.GPTCustom(4, 128, 4, 512, 32)
	if m.StateBytes() < 3*transform.ChunkBytes {
		t.Fatalf("%d bytes of state: the test wants several chunks a device", m.StateBytes())
	}
	golden := InitState(m, 5)
	cfg, alloc := parallel.Config{TP: 1, PP: 2, DP: 2}, cluster.Allocation{0, 1, 2, 3}
	ptc, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range []bool{false, true} {
		stores := map[cluster.DeviceID]store.Access{}
		for _, d := range alloc {
			stores[d] = store.Local{FS: store.NewMemFS()}
			if wire {
				hs := httptest.NewServer(store.NewServer(store.NewMemFS()))
				t.Cleanup(hs.Close)
				stores[d] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
			}
		}
		rt := &Runtime{Name: "big", Model: m, Stores: stores, Storage: store.Local{FS: store.NewMemFS()}}
		if err := rt.DeploySeed(ctx, ptc, cfg, alloc, 5); err != nil {
			t.Fatal(err)
		}
		for _, d := range alloc {
			for _, s := range ptc.Place[d] {
				got, err := stores[d].Query(transform.ModelPath("big", d, s.Tensor), nil)
				if err != nil || !got.Equal(golden[s.Tensor].Slice(s.Region)) {
					t.Fatalf("wire=%v: dev %d holds %s%v wrong (err %v)", wire, d, s.Tensor, s.Region, err)
				}
			}
		}
		if err := rt.Verify(ctx, 5); err != nil {
			t.Fatalf("wire=%v: %v", wire, err)
		}
		last := ptc.Unique()[1]
		s := last[len(last)-1]
		bad := golden[s.Tensor].Slice(s.Region)
		bad.FillSeq(0, 1)
		if err := stores[ptc.Devices[1]].Upload(transform.ModelPath("big", ptc.Devices[1], s.Tensor), bad); err != nil {
			t.Fatal(err)
		}
		if err := rt.Verify(ctx, 5); err == nil || err.Error() != fmt.Sprintf("corrupted tensor %s", s.Tensor) {
			t.Fatalf("wire=%v: Verify of a corrupted %s returned %v", wire, s.Tensor, err)
		}
	}
}

// The store requests of the lifecycle tenplex-coordd runs for every job
// (gpt 4/128/4/512/32: T1·P2 on two devices of a Cloud(4), scaled out to
// T1·P4 on four) are pinned, phase by phase: DeploySeed sends one
// /upload-batch per chunk of a device's distinct state and device that
// holds it, Checkpoint one /assemble per peer store, Verify one /batch
// per chunk read back.
func TestLifecycleStoreRequests(t *testing.T) {
	ctx := context.Background()
	topo := cluster.Cloud(4)
	var (
		mu   sync.Mutex
		reqs = map[string]int{}
	)
	stores := map[cluster.DeviceID]store.Access{}
	for _, d := range topo.Devices {
		srv := store.NewServer(store.NewMemFS())
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			reqs[r.URL.Path]++
			mu.Unlock()
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		stores[d.ID] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
	}
	phase := func(name string, want map[string]int, run func() error) {
		t.Helper()
		mu.Lock()
		clear(reqs)
		mu.Unlock()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		for path, n := range want {
			if reqs[path] != n {
				t.Errorf("%s: %d %s requests, want %d (all: %v)", name, reqs[path], path, n, reqs)
			}
		}
	}
	m := model.GPTCustom(4, 128, 4, 512, 32)
	rt := &Runtime{Name: "life", Model: m, Topo: topo, Stores: stores, Storage: store.Local{FS: store.NewMemFS()}}
	cfg, alloc := parallel.Config{TP: 1, PP: 2, DP: 1}, cluster.Allocation{0, 1}
	ptc, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	phase("deploy", map[string]int{"/upload-batch": 5, "/upload": 0}, func() error {
		return rt.DeploySeed(ctx, ptc, cfg, alloc, 3)
	})
	ch, err := Plan(m, topo, rt.PTC, parallel.Config{TP: 1, PP: 4, DP: 1}, cluster.Allocation{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Apply(ctx, ch); err != nil {
		t.Fatal(err)
	}
	phase("checkpoint", map[string]int{"/assemble": 4}, rt.Checkpoint)
	phase("verify", map[string]int{"/batch": 5, "/query": 0}, func() error { return rt.Verify(ctx, 3) })
}
