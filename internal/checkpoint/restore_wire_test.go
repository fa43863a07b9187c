package checkpoint

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// wireStores is one loopback Tensor Store server per device and a count
// of the requests each endpoint saw across all of them.
type wireStores struct {
	stores map[cluster.DeviceID]store.Access
	mu     sync.Mutex
	reqs   map[string]int
}

func newWireStores(t *testing.T, devs []cluster.DeviceID) *wireStores {
	t.Helper()
	ws := &wireStores{stores: map[cluster.DeviceID]store.Access{}, reqs: map[string]int{}}
	for _, d := range devs {
		srv := store.NewServer(store.NewMemFS())
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ws.mu.Lock()
			ws.reqs[r.URL.Path]++
			ws.mu.Unlock()
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		ws.stores[d] = &store.Client{Base: hs.URL, HTTP: hs.Client()}
	}
	return ws
}

func (ws *wireStores) requests(path string) int {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.reqs[path]
}

// perTensor hides everything a wire store offers beyond store.Access,
// batched uploads included.
type perTensor struct{ store.Access }

// heldUploads is a wire store seen through a wrapper that records the
// most bytes of distinct tensors its batched uploads, and those of every
// store sharing the counter, have had in flight at once.
type heldUploads struct {
	store.Access
	bu store.BatchUploader
	c  *held
}

// held counts, across stores, each tensor being uploaded and the bytes
// of the distinct ones.
type held struct {
	mu          sync.Mutex
	refs        map[*tensor.Tensor]int
	bytes, peak int
}

func (h heldUploads) UploadBatch(ctx context.Context, items []store.UploadItem) error {
	h.c.mu.Lock()
	for _, it := range items {
		t, _ := it.View.Whole()
		if h.c.refs[t]++; h.c.refs[t] == 1 {
			h.c.bytes += t.NumBytes()
		}
	}
	h.c.peak = max(h.c.peak, h.c.bytes)
	h.c.mu.Unlock()
	time.Sleep(5 * time.Millisecond) // long enough for every other chunk to start, if it may
	err := h.bu.UploadBatch(ctx, items)
	h.c.mu.Lock()
	for _, it := range items {
		t, _ := it.View.Whole()
		if h.c.refs[t]--; h.c.refs[t] == 0 {
			h.c.bytes -= t.NumBytes()
		}
	}
	h.c.mu.Unlock()
	return err
}

// readsOf is checkpoint storage that counts the range reads of each
// path.
type readsOf struct {
	store.Local
	mu *sync.Mutex
	n  map[string]int
}

func (r readsOf) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	r.mu.Lock()
	r.n[path]++
	r.mu.Unlock()
	return r.Local.QueryInto(path, reg, dst, at)
}

// storedTree reads everything under dir out of a store the way a client
// can: List, then Query on every file, directories followed.
func storedTree(t *testing.T, acc store.Access, dir string, out map[string]*tensor.Tensor) {
	t.Helper()
	names, err := acc.List(dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	for _, name := range names {
		p := strings.TrimSuffix(dir, "/") + "/" + name
		if strings.HasSuffix(name, "/") {
			storedTree(t, acc, strings.TrimSuffix(p, "/"), out)
			continue
		}
		got, err := acc.Query(p, nil)
		if err != nil {
			t.Fatalf("query %s: %v", p, err)
		}
		out[p] = got
	}
}

// Restore sends a batch-capable device store one request per chunk of
// distinct sub-tensors it holds any of, and leaves the stores — every
// path, every bit — as the tensor-by-tensor route does behind a wrapper
// that hides the capability, and as it leaves in-process stores. The
// checkpoints are written under another layout than the one restored,
// so ranges span pieces and land strided.
func TestRestoreToWireStores(t *testing.T) {
	const job = "job0"
	gpt, moe := model.GPTCustom(2, 16, 2, 64, 8), model.MoECustom(2, 16, 4)
	mustPTC := func(ptc *core.PTC, err error) *core.PTC {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ptc
	}
	for _, l := range []struct {
		name     string
		from, to *core.PTC
	}{
		{"TP2 to TP4",
			mustPTC(parallel.BuildPTC(gpt, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))),
			mustPTC(parallel.BuildPTC(gpt, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4)))},
		{"TP4 to TP2·PP2·DP2",
			mustPTC(parallel.BuildPTC(gpt, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))),
			mustPTC(parallel.BuildPTC(gpt, parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8)))},
		{"MoE E4·D1 to E2·D2",
			mustPTC(parallel.BuildMoEPTC(moe, parallel.MoEConfig{EP: 4, DP: 1}, alloc(4))),
			mustPTC(parallel.BuildMoEPTC(moe, parallel.MoEConfig{EP: 2, DP: 2}, alloc(4)))},
	} {
		golden := goldenFor(l.from)
		src := localStores(len(l.from.Devices))
		if err := transform.LoadPTC(job, l.from, src, golden); err != nil {
			t.Fatal(err)
		}
		storage := store.Local{FS: store.NewMemFS()}
		if err := Save(storage, job, 3, l.from, src); err != nil {
			t.Fatal(err)
		}
		r, err := Open(storage, job, 3)
		if err != nil {
			t.Fatal(err)
		}
		placed, batches := 0, 0
		for _, d := range l.to.Devices {
			placed += len(l.to.Place[d])
		}
		for _, subs := range l.to.Unique() {
			for _, c := range transform.Chunks(l.to, subs) {
				holders := map[cluster.DeviceID]bool{}
				for _, s := range c {
					for _, d := range l.to.Devices {
						for _, h := range l.to.Place[d] {
							holders[d] = holders[d] || h.Tensor == s.Tensor && h.Region.Equal(s.Region)
						}
					}
				}
				for _, ok := range holders {
					if ok {
						batches++
					}
				}
			}
		}

		batched, single, local := newWireStores(t, l.to.Devices), newWireStores(t, l.to.Devices), localStores(len(l.to.Devices))
		hidden := map[cluster.DeviceID]store.Access{}
		for _, d := range l.to.Devices {
			hidden[d] = perTensor{single.stores[d]}
		}
		for name, stores := range map[string]map[cluster.DeviceID]store.Access{"batched": batched.stores, "tensor by tensor": hidden, "in process": local} {
			if err := Restore(context.Background(), r, job, l.to, stores); err != nil {
				t.Fatalf("%s: %s restore: %v", l.name, name, err)
			}
		}
		if b, u := batched.requests("/upload-batch"), batched.requests("/upload"); b != batches || u != 0 {
			t.Fatalf("%s: batched restore made %d /upload-batch and %d /upload requests, want %d (one a chunk and holder) and 0",
				l.name, b, u, batches)
		}
		if b, u := single.requests("/upload-batch"), single.requests("/upload"); b != 0 || u != placed {
			t.Fatalf("%s: tensor-by-tensor restore made %d /upload-batch and %d /upload requests, want 0 and %d", l.name, b, u, placed)
		}
		total := 0
		for _, d := range l.to.Devices {
			want, got, slow := map[string]*tensor.Tensor{}, map[string]*tensor.Tensor{}, map[string]*tensor.Tensor{}
			storedTree(t, local[d], "/", want)
			storedTree(t, batched.stores[d], "/", got)
			storedTree(t, single.stores[d], "/", slow)
			if len(want) != len(l.to.Place[d]) || len(got) != len(want) || len(slow) != len(want) {
				t.Fatalf("%s: dev %d holds %d tensors in process, %d batched, %d tensor by tensor; PTC places %d",
					l.name, d, len(want), len(got), len(slow), len(l.to.Place[d]))
			}
			for p, x := range want {
				if y, ok := got[p]; !ok || !x.Equal(y) {
					t.Fatalf("%s: dev %d: batched restore of %s differs (present %v)", l.name, d, p, ok)
				}
				if y, ok := slow[p]; !ok || !x.Equal(y) {
					t.Fatalf("%s: dev %d: tensor-by-tensor restore of %s differs (present %v)", l.name, d, p, ok)
				}
			}
			for _, s := range l.to.Place[d] {
				if x := want[transform.ModelPath(job, d, s.Tensor)]; x == nil || !x.Equal(golden[s.Tensor].Slice(s.Region)) {
					t.Fatalf("%s: dev %d: restored %s%v is not the state that was saved", l.name, d, s.Tensor, s.Region)
				}
			}
			total += len(want)
		}
		if total != placed {
			t.Fatalf("%s: %d tensors restored, PTC places %d", l.name, total, placed)
		}
	}
}

// A DP=2 restore reads every piece of the checkpoint once, though two
// devices hold each, and to stores that copy what they are sent it has
// at most transform.ChunksInFlight chunks' bytes in flight, however many
// devices' chunks are ready to go.
func TestRestoreReadsOnceHoldsFewChunks(t *testing.T) {
	const job = "job0"
	m := model.GPTCustom(4, 256, 4, 512, 32)
	ptc, err := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8))
	if err != nil {
		t.Fatal(err)
	}
	src, golden := localStores(8), goldenFor(ptc)
	if err := transform.LoadPTC(job, ptc, src, golden); err != nil {
		t.Fatal(err)
	}
	storage := readsOf{Local: store.Local{FS: store.NewMemFS()}, mu: new(sync.Mutex), n: map[string]int{}}
	if err := Save(storage, job, 1, ptc, src); err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, job, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws, c := newWireStores(t, ptc.Devices), &held{refs: map[*tensor.Tensor]int{}}
	stores := map[cluster.DeviceID]store.Access{}
	for _, d := range ptc.Devices {
		cl := ws.stores[d].(*store.Client)
		stores[d] = heldUploads{Access: cl, bu: cl, c: c}
	}
	if err := Restore(context.Background(), r, job, ptc, stores); err != nil {
		t.Fatal(err)
	}
	pieces := 0
	for id, ps := range r.Meta.Pieces {
		for _, p := range ps {
			if n := storage.n[p.Path]; n != 1 {
				t.Fatalf("piece %s of %s read %d times, want once", p.Path, id, n)
			}
			pieces++
		}
	}
	if len(storage.n) != pieces {
		t.Fatalf("%d paths read, the checkpoint has %d pieces", len(storage.n), pieces)
	}
	if limit := transform.ChunksInFlight * transform.ChunkBytes; c.peak > limit || c.peak == 0 {
		t.Fatalf("%d bytes in flight at once, want some and at most %d", c.peak, limit)
	}
	state, err := transform.ReadPTC(job, ptc, ws.stores)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range golden {
		if !state[id].Equal(want) {
			t.Fatalf("tensor %s restored wrong", id)
		}
	}
}
