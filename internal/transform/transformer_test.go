package transform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

func alloc(n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(i)
	}
	return out
}

func buildPTC(t *testing.T, m *model.Model, cfg parallel.Config, a cluster.Allocation) *core.PTC {
	t.Helper()
	ptc, err := parallel.BuildPTC(m, cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	return ptc
}

// localStores gives each device its own in-process MemFS.
func localStores(devs []cluster.DeviceID) map[cluster.DeviceID]store.Access {
	out := map[cluster.DeviceID]store.Access{}
	for _, d := range devs {
		out[d] = store.Local{FS: store.NewMemFS()}
	}
	return out
}

// goldenState makes deterministic full tensors for a PTC.
func goldenState(ptc *core.PTC) map[core.TensorID]*tensor.Tensor {
	out := map[core.TensorID]*tensor.Tensor{}
	seed := 1.0
	for id, meta := range ptc.Tensors {
		full := tensor.New(meta.DType, meta.Shape...)
		full.FillSeq(seed*1e4, 1)
		seed++
		out[id] = full
	}
	return out
}

// verifyAgainstGolden checks every placed sub-tensor equals the golden
// slice.
func verifyAgainstGolden(t *testing.T, job string, ptc *core.PTC,
	stores map[cluster.DeviceID]store.Access, golden map[core.TensorID]*tensor.Tensor) {
	t.Helper()
	for _, d := range ptc.Devices {
		for _, s := range ptc.Place[d] {
			got, err := stores[d].Query(ModelPath(job, d, s.Tensor), nil)
			if err != nil {
				t.Fatalf("dev %d missing %s: %v", d, s.Tensor, err)
			}
			if !got.Equal(golden[s.Tensor].Slice(s.Region)) {
				t.Fatalf("dev %d has wrong bytes for %s%v", d, s.Tensor, s.Region)
			}
		}
	}
}

func reconfigure(t *testing.T, m *model.Model, fromCfg, toCfg parallel.Config,
	fromAlloc, toAlloc cluster.Allocation, stores map[cluster.DeviceID]store.Access) (Stats, *core.PTC, map[core.TensorID]*tensor.Tensor) {
	t.Helper()
	const job = "job0"
	from := buildPTC(t, m, fromCfg, fromAlloc)
	to := buildPTC(t, m, toCfg, toAlloc)
	golden := goldenState(from)
	if err := LoadPTC(job, from, stores, golden); err != nil {
		t.Fatal(err)
	}
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Transformer{Job: job, Stores: stores}
	st, err := tr.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGolden(t, job, to, stores, golden)
	return st, to, golden
}

func TestApplyTPReshard(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	stores := localStores(alloc(4))
	st, _, _ := reconfigure(t, m,
		parallel.Config{TP: 2, PP: 1, DP: 1}, parallel.Config{TP: 4, PP: 1, DP: 1},
		alloc(2), alloc(4), stores)
	if st.PeerBytes == 0 {
		t.Fatal("TP scale-out must fetch from peers")
	}
}

func TestApplyDPScaleOutAndIn(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	stores := localStores(alloc(4))
	st, to, golden := reconfigure(t, m,
		parallel.Config{TP: 1, PP: 2, DP: 1}, parallel.Config{TP: 1, PP: 2, DP: 2},
		alloc(2), alloc(4), stores)
	if st.PeerBytes != m.ParamBytes() {
		t.Fatalf("DP scale-out peer bytes = %d, want %d", st.PeerBytes, m.ParamBytes())
	}
	// Now scale back in: nothing should move (replica already local).
	from := to
	toPTC := buildPTC(t, m, parallel.Config{TP: 1, PP: 2, DP: 1}, alloc(2))
	plan, err := core.GeneratePlan(from, toPTC, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Transformer{Job: "job0", Stores: stores}
	st2, err := tr.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st2.PeerBytes != 0 || st2.StorageBytes != 0 {
		t.Fatalf("DP scale-in moved bytes: %+v", st2)
	}
	verifyAgainstGolden(t, "job0", toPTC, stores, golden)
	// Departed devices released their model state.
	for _, d := range []cluster.DeviceID{2, 3} {
		if _, err := stores[d].List("/job/job0/model"); err == nil {
			t.Fatalf("device %d still holds model state after leaving", d)
		}
	}
}

func TestApplyPipelineRepartition(t *testing.T) {
	m := model.GPTCustom(6, 16, 2, 64, 8)
	stores := localStores(alloc(4))
	st, _, _ := reconfigure(t, m,
		parallel.Config{TP: 1, PP: 2, DP: 1}, parallel.Config{TP: 1, PP: 4, DP: 1},
		alloc(2), alloc(4), stores)
	if st.PeerBytes >= m.ParamBytes() {
		t.Fatalf("PP repartition moved the whole model: %+v", st)
	}
}

func TestApplyMultiDimensional(t *testing.T) {
	// The paper's Fig. 9 transition: (2,4,2) -> (2,4,1) -> (2,2,1) on a
	// shrinking allocation.
	m := model.GPTCustom(8, 32, 4, 128, 16)
	stores := localStores(alloc(16))
	const job = "job0"
	cfgs := []struct {
		cfg parallel.Config
		n   int
	}{
		{parallel.Config{TP: 2, PP: 4, DP: 2}, 16},
		{parallel.Config{TP: 2, PP: 4, DP: 1}, 8},
		{parallel.Config{TP: 2, PP: 2, DP: 1}, 4},
	}
	from := buildPTC(t, m, cfgs[0].cfg, alloc(cfgs[0].n))
	golden := goldenState(from)
	if err := LoadPTC(job, from, stores, golden); err != nil {
		t.Fatal(err)
	}
	for _, next := range cfgs[1:] {
		to := buildPTC(t, m, next.cfg, alloc(next.n))
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr := &Transformer{Job: job, Stores: stores}
		if _, err := tr.Apply(plan); err != nil {
			t.Fatal(err)
		}
		verifyAgainstGolden(t, job, to, stores, golden)
		from = to
	}
}

func TestApplyOverREST(t *testing.T) {
	// Devices 2 and 3 are "remote": their stores are reached through
	// real HTTP servers. The transformer must behave identically.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	stores := map[cluster.DeviceID]store.Access{}
	var servers []*store.Server
	for d := 0; d < 4; d++ {
		fs := store.NewMemFS()
		if d < 2 {
			stores[cluster.DeviceID(d)] = store.Local{FS: fs}
			continue
		}
		srv := store.NewServer(fs)
		hs := httptest.NewServer(srv)
		defer hs.Close()
		servers = append(servers, srv)
		stores[cluster.DeviceID(d)] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
	}
	st, _, _ := reconfigure(t, m,
		parallel.Config{TP: 2, PP: 1, DP: 1}, parallel.Config{TP: 2, PP: 1, DP: 2},
		alloc(2), alloc(4), stores)
	if st.PeerBytes == 0 {
		t.Fatal("expected remote fetches")
	}
	var served int64
	for _, s := range servers {
		served += s.BytesReceived()
	}
	if served == 0 {
		t.Fatal("remote stores received no uploads")
	}
}

// memStorage implements StorageReader over golden tensors.
type memStorage map[core.TensorID]*tensor.Tensor

func (m memStorage) ReadRange(id core.TensorID, reg tensor.Region) (*tensor.Tensor, error) {
	full, ok := m[id]
	if !ok {
		return nil, fmt.Errorf("storage: no checkpoint for %q", id)
	}
	return full.Slice(reg), nil
}

func TestApplyFailureRecoveryViaStorage(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	stores := localStores(alloc(2))
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	golden := goldenState(from)
	if err := LoadPTC(job, from, stores, golden); err != nil {
		t.Fatal(err)
	}
	// Device 1 dies.
	degraded := from.WithoutDevices(1)
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	plan, err := core.GeneratePlan(degraded, to, core.PlanOptions{StorageFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without a StorageReader the transformer must refuse.
	tr := &Transformer{Job: job, Stores: stores}
	if _, err := tr.Apply(plan); err == nil {
		t.Fatal("storage fetch without StorageReader succeeded")
	}
	tr.Storage = memStorage(golden)
	st, err := tr.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.StorageBytes == 0 {
		t.Fatal("expected storage reads")
	}
	verifyAgainstGolden(t, job, to, stores, golden)
}

func TestApplyIdentityKeepsBytesLocal(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	stores := localStores(alloc(2))
	cfg := parallel.Config{TP: 2, PP: 1, DP: 1}
	st, _, _ := reconfigure(t, m, cfg, cfg, alloc(2), alloc(2), stores)
	if st.PeerBytes != 0 || st.StorageBytes != 0 {
		t.Fatalf("identity moved bytes: %+v", st)
	}
	if st.Noops == 0 {
		t.Fatal("identity should be all noops")
	}
}

func TestReadPTCRoundTrip(t *testing.T) {
	m := model.GPTCustom(3, 16, 2, 64, 8)
	const job = "job0"
	// DP 2: every sub-tensor has a replica the read must skip.
	ptc := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 2}, alloc(4))
	golden := goldenState(ptc)
	var stateBytes int64
	for _, full := range golden {
		stateBytes += int64(full.NumBytes())
	}
	check := func(t *testing.T, back map[core.TensorID]*tensor.Tensor, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(golden) {
			t.Fatalf("ReadPTC returned %d tensors, want %d", len(back), len(golden))
		}
		for id, want := range golden {
			if !back[id].Equal(want) {
				t.Fatalf("ReadPTC mismatch for %s", id)
			}
		}
	}

	t.Run("local", func(t *testing.T) {
		stores := localStores(alloc(4))
		if err := LoadPTC(job, ptc, stores, golden); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPTC(job, ptc, stores)
		check(t, back, err)

		// Canceled after the third range: no read starts once a worker has
		// seen the cancel. The worker that canceled reads no further range
		// of its tensor, and each other worker finishes at most the read it
		// had started; with one worker the read stops at exactly 3.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cs := &cancelingStore{after: 3, cancel: cancel}
		for d, acc := range stores {
			stores[d] = cancelingAccess{acc, cs}
		}
		if _, err := ReadPTCContext(ctx, job, ptc, stores); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled read returned %v, want context.Canceled", err)
		}
		workers := min(runtime.GOMAXPROCS(0), len(ptc.Tensors))
		if n := cs.reads.Load(); n < 3 || n > int64(3+workers-1) {
			t.Fatalf("canceled read issued %d range reads on %d workers, want 3 to %d", n, workers, 3+workers-1)
		}
		if n := cs.late.Load(); n != 0 {
			t.Fatalf("%d range reads of the canceled tensor started after the cancel", n)
		}
	})

	t.Run("wire", func(t *testing.T) {
		// Once armed, a /batch request cancels the read it belongs to and
		// holds its response until the client has gone (which the server
		// only notices once the request body has been consumed).
		var armed atomic.Pointer[context.CancelFunc]
		rc := newRestCluster(t, alloc(4), func(_ cluster.DeviceID, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if cancel := armed.Load(); cancel != nil && r.URL.Path == "/batch" {
					_, _ = io.Copy(io.Discard, r.Body)
					(*cancel)()
					<-r.Context().Done()
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		if err := LoadPTC(job, ptc, rc.stores, golden); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPTC(job, ptc, rc.stores)
		check(t, back, err)
		served := func() (n int64) {
			for _, s := range rc.servers {
				n += s.BytesServed()
			}
			return n
		}
		if got := served(); got != stateBytes {
			t.Fatalf("servers sent %d bytes for %d bytes of state: replicas must be read once", got, stateBytes)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		armed.Store(&cancel)
		if _, err := ReadPTCContext(ctx, job, ptc, rc.stores); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled read returned %v, want context.Canceled", err)
		}
		if got := served(); got != stateBytes {
			t.Fatalf("canceled read still moved %d bytes", got-stateBytes)
		}
	})
}

// cancelingStore calls cancel when the after-th range read across every
// store sharing it has been served, and counts the reads into that
// read's destination tensor that start afterwards.
type cancelingStore struct {
	reads, late atomic.Int64
	after       int64
	cancel      context.CancelFunc
	canceled    atomic.Pointer[tensor.Tensor]
}

// cancelingAccess is one device's store under a shared cancelingStore.
type cancelingAccess struct {
	store.Access
	c *cancelingStore
}

func (a cancelingAccess) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	c := a.c
	if c.canceled.Load() == dst {
		c.late.Add(1)
	}
	n, err := a.Access.QueryInto(path, reg, dst, at)
	if c.reads.Add(1) == c.after {
		c.canceled.Store(dst)
		c.cancel()
	}
	return n, err
}

func TestApplyErrorsAreDescriptive(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 2}, alloc(2))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Missing destination store.
	tr := &Transformer{Job: job, Stores: map[cluster.DeviceID]store.Access{0: store.Local{FS: store.NewMemFS()}}}
	if _, err := tr.Apply(plan); err == nil || !strings.Contains(err.Error(), "no store") {
		t.Fatalf("missing store error: %v", err)
	}
	// Stores exist but hold no state.
	tr.Stores = localStores(alloc(2))
	if _, err := tr.Apply(plan); err == nil || !strings.Contains(err.Error(), "fetch") {
		t.Fatalf("missing state error: %v", err)
	}
}
