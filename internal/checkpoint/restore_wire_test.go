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

// countingUploads is a wire store seen through a wrapper that records
// how many batched uploads are in flight at once.
type countingUploads struct {
	store.Access
	bu             store.BatchUploader
	mu             *sync.Mutex
	inFlight, peak *int
}

func (c countingUploads) UploadBatch(ctx context.Context, items []store.UploadItem) error {
	c.mu.Lock()
	if *c.inFlight++; *c.inFlight > *c.peak {
		*c.peak = *c.inFlight
	}
	c.mu.Unlock()
	time.Sleep(5 * time.Millisecond) // long enough for the next device to start, if it may
	err := c.bu.UploadBatch(ctx, items)
	c.mu.Lock()
	*c.inFlight--
	c.mu.Unlock()
	return err
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

// Restore sends a batch-capable device store one request, holds no more
// than saveDevicesInFlight devices' sub-tensors at a time, and leaves
// the stores — every path, every bit — as the tensor-by-tensor route
// does behind a wrapper that hides the capability, and as it leaves
// in-process stores. The checkpoints are written under another layout
// than the one restored, so ranges span pieces and land strided.
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
		placed := 0
		for _, d := range l.to.Devices {
			placed += len(l.to.Place[d])
		}

		batched, single, local := newWireStores(t, l.to.Devices), newWireStores(t, l.to.Devices), localStores(len(l.to.Devices))
		var mu sync.Mutex
		var inFlight, peak int
		counted := map[cluster.DeviceID]store.Access{}
		hidden := map[cluster.DeviceID]store.Access{}
		for _, d := range l.to.Devices {
			c := batched.stores[d].(*store.Client)
			counted[d] = countingUploads{Access: c, bu: c, mu: &mu, inFlight: &inFlight, peak: &peak}
			hidden[d] = perTensor{single.stores[d]}
		}
		for name, stores := range map[string]map[cluster.DeviceID]store.Access{"batched": counted, "tensor by tensor": hidden, "in process": local} {
			if err := Restore(context.Background(), r, job, l.to, stores); err != nil {
				t.Fatalf("%s: %s restore: %v", l.name, name, err)
			}
		}
		if b, u := batched.requests("/upload-batch"), batched.requests("/upload"); b != len(l.to.Devices) || u != 0 {
			t.Fatalf("%s: batched restore made %d /upload-batch and %d /upload requests, want %d (one a device) and 0",
				l.name, b, u, len(l.to.Devices))
		}
		if b, u := single.requests("/upload-batch"), single.requests("/upload"); b != 0 || u != placed {
			t.Fatalf("%s: tensor-by-tensor restore made %d /upload-batch and %d /upload requests, want 0 and %d", l.name, b, u, placed)
		}
		if peak != saveDevicesInFlight {
			t.Fatalf("%s: at most %d devices restored at once, want %d", l.name, peak, saveDevicesInFlight)
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
