package transform

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

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

// sameTrees fails unless every device's store holds the same paths with
// bit-identical tensors in both sets; it returns how many tensors that
// is.
func sameTrees(t *testing.T, what string, devs []cluster.DeviceID, a, b map[cluster.DeviceID]store.Access) int {
	t.Helper()
	files := 0
	for _, d := range devs {
		ta, tb := map[string]*tensor.Tensor{}, map[string]*tensor.Tensor{}
		storedTree(t, a[d], "/", ta)
		storedTree(t, b[d], "/", tb)
		if len(ta) != len(tb) {
			t.Fatalf("%s: dev %d holds %d tensors one way and %d the other", what, d, len(ta), len(tb))
		}
		for p, x := range ta {
			if y, ok := tb[p]; !ok || !x.Equal(y) {
				t.Fatalf("%s: dev %d: %s differs between the two routes (present %v)", what, d, p, ok)
			}
		}
		files += len(ta)
	}
	return files
}

// loadLayouts are the placements the batched routes are held to: tensor
// parallel (every matrix split by columns or rows: strided views), all
// three dimensions at once with replicas, an expert-parallel MoE, and
// the benchmark's wire-migrate-small deploy, 592 sub-tensors on four
// devices.
var loadLayouts = []struct {
	name  string
	build func(t *testing.T) *core.PTC
}{
	{"TP4", func(t *testing.T) *core.PTC {
		return buildPTC(t, model.GPTCustom(2, 16, 2, 64, 8), parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	}},
	{"TP2·PP2·DP2", func(t *testing.T) *core.PTC {
		return buildPTC(t, model.GPTCustom(2, 16, 2, 64, 8), parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8))
	}},
	{"MoE E2·D2", func(t *testing.T) *core.PTC {
		ptc, err := parallel.BuildMoEPTC(model.MoECustom(2, 16, 4), parallel.MoEConfig{EP: 2, DP: 2}, alloc(4))
		if err != nil {
			t.Fatal(err)
		}
		return ptc
	}},
	{"wire-migrate-small", func(t *testing.T) *core.PTC {
		return buildPTC(t, model.GPTCustom(12, 48, 4, 192, 32), parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	}},
}

// LoadPTC sends a batch-capable store one request for everything its
// device holds, and what the stores then hold — every path, every bit —
// and what their servers count as received is what the per-tensor route
// leaves behind a wrapper that hides the capability.
func TestLoadPTCBatchedMatchesPerTensor(t *testing.T) {
	const job = "job0"
	for _, l := range loadLayouts {
		ptc := l.build(t)
		golden := goldenState(ptc)
		placed, strided := 0, 0
		for _, d := range ptc.Devices {
			for _, s := range ptc.Place[d] {
				placed++
				if _, flat := golden[s.Tensor].View(s.Region).Contiguous(); !flat {
					strided++
				}
			}
		}
		batched, single := newRestCluster(t, ptc.Devices, nil), newRestCluster(t, ptc.Devices, nil)
		if err := LoadPTC(job, ptc, batched.stores, golden); err != nil {
			t.Fatalf("%s: batched load: %v", l.name, err)
		}
		if err := LoadPTC(job, ptc, hideBatch(single.stores), golden); err != nil {
			t.Fatalf("%s: per-tensor load: %v", l.name, err)
		}
		if b, u := batched.requests("/upload-batch"), batched.requests("/upload"); b != len(ptc.Devices) || u != 0 {
			t.Fatalf("%s: batched load made %d /upload-batch and %d /upload requests, want %d (one a device) and 0",
				l.name, b, u, len(ptc.Devices))
		}
		if b, u := single.requests("/upload-batch"), single.requests("/upload"); b != 0 || u != placed {
			t.Fatalf("%s: per-tensor load made %d /upload-batch and %d /upload requests, want 0 and %d (one a sub-tensor)",
				l.name, b, u, placed)
		}
		if l.name == "wire-migrate-small" && placed != 592 {
			t.Fatalf("wire-migrate-small places %d sub-tensors, want the benchmark's 592", placed)
		}
		if strings.HasPrefix(l.name, "TP") && strided == 0 {
			t.Fatalf("%s: no strided view among %d placements; the layout does not test the scatter", l.name, placed)
		}
		verifyAgainstGolden(t, job, ptc, batched.stores, golden)
		if n := sameTrees(t, l.name, ptc.Devices, batched.stores, single.stores); n != placed {
			t.Fatalf("%s: stores hold %d tensors, PTC places %d", l.name, n, placed)
		}
		if b, s := batched.received(), single.received(); b != s {
			t.Fatalf("%s: servers counted %d bytes received batched, %d per tensor", l.name, b, s)
		}
	}
}

// In a mixed set each store is loaded the way it can be: the wire stores
// by batch, the in-process one tensor by tensor.
func TestLoadPTCMixedStores(t *testing.T) {
	const job = "job0"
	ptc := loadLayouts[0].build(t)
	golden := goldenState(ptc)
	rc := newRestCluster(t, ptc.Devices, nil)
	rc.stores[1] = store.Local{FS: store.NewMemFS()}
	if err := LoadPTC(job, ptc, rc.stores, golden); err != nil {
		t.Fatal(err)
	}
	if b, u := rc.requests("/upload-batch"), rc.requests("/upload"); b != 3 || u != 0 {
		t.Fatalf("%d /upload-batch and %d /upload requests, want 3 and 0", b, u)
	}
	verifyAgainstGolden(t, job, ptc, rc.stores, golden)
}

// Every device is tried; the error is the first failed device's, in the
// PTC's order, whichever answered first.
func TestLoadPTCReportsFirstFailedDevice(t *testing.T) {
	ptc := loadLayouts[0].build(t)
	rc := newRestCluster(t, ptc.Devices, func(d cluster.DeviceID, next http.Handler) http.Handler {
		if d != 1 && d != 2 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "out of service", http.StatusServiceUnavailable)
		})
	})
	err := LoadPTC("job0", ptc, rc.stores, goldenState(ptc))
	if err == nil || !strings.Contains(err.Error(), "dev 1") || strings.Contains(err.Error(), "dev 2") {
		t.Fatalf("error %v, want device 1's alone", err)
	}
	if got := rc.requests("/upload-batch"); got != len(ptc.Devices) {
		t.Fatalf("%d /upload-batch requests, want one to each of %d devices", got, len(ptc.Devices))
	}
}

// A load canceled while its batches are on their way returns the
// context's error, and no device stores anything: each server is left
// with a body that stops short.
func TestLoadPTCCancelMidBatch(t *testing.T) {
	ptc := loadLayouts[0].build(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan struct{})
	rc := newRestCluster(t, ptc.Devices, func(_ cluster.DeviceID, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = &cutBody{ReadCloser: r.Body, after: 256, cancel: cancel, returned: returned}
			next.ServeHTTP(w, r)
		})
	})
	err := LoadPTCContext(ctx, "job0", ptc, rc.stores, goldenState(ptc))
	close(returned)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled load: error %v, want context.Canceled", err)
	}
	// A handler still running has a body that can only fail from here on.
	for i, srv := range rc.servers {
		if names, _ := srv.FS.List("/"); len(names) != 0 {
			t.Fatalf("server %d stored %v of a canceled load", i, names)
		}
	}
}

// cutBody lets the first bytes of a request body through, cancels the
// caller's context, waits for the caller to have returned, and then
// reports the connection gone: what the server of a canceled transfer
// sees, whatever the socket had buffered.
type cutBody struct {
	io.ReadCloser
	after    int
	cancel   func()
	returned <-chan struct{}
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.after <= 0 {
		c.cancel()
		<-c.returned
		return 0, io.ErrUnexpectedEOF
	}
	n, err := c.ReadCloser.Read(p[:min(len(p), c.after)])
	c.after -= n
	return n, err
}

// replicaTrees is what Replicate wrote, per store.
func replicaTrees(t *testing.T, job string, devs []cluster.DeviceID, stores map[cluster.DeviceID]store.Access) map[cluster.DeviceID]map[string]*tensor.Tensor {
	t.Helper()
	out := map[cluster.DeviceID]map[string]*tensor.Tensor{}
	for _, d := range devs {
		out[d] = map[string]*tensor.Tensor{}
		storedTree(t, stores[d], "/job/"+job+"/replica", out[d])
	}
	return out
}

// Over wire stores Replicate reads each home device once and writes each
// replica store once, and the replicas are those the tensor-by-tensor
// loop writes — over in-process stores, and over wire stores behind a
// wrapper that hides both batch capabilities.
func TestReplicateOverWireStores(t *testing.T) {
	const job = "job0"
	topo := cluster.OnPrem16()
	devs := cluster.Allocation{0, 4, 8, 12} // one device a worker: replicas land on distinct machines
	ptc := buildPTC(t, model.GPTCustom(2, 16, 2, 64, 8), parallel.Config{TP: 2, PP: 2, DP: 1}, devs)
	golden := goldenState(ptc)
	placed := 0
	for _, d := range ptc.Devices {
		placed += len(ptc.Place[d])
	}
	for _, n := range []int{1, 2} {
		local := localStores(devs)
		wire, hidden := newRestCluster(t, devs, nil), newRestCluster(t, devs, nil)
		for _, stores := range []map[cluster.DeviceID]store.Access{local, wire.stores, hidden.stores} {
			if err := LoadPTC(job, ptc, stores, golden); err != nil {
				t.Fatal(err)
			}
		}
		want, err := Replicate(job, ptc, topo, local, n)
		if err != nil {
			t.Fatal(err)
		}
		uploads := hidden.requests("/upload")
		got, err := Replicate(job, ptc, topo, wire.stores, n)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Replicate(job, ptc, topo, hideBatch(hidden.stores), n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || slow != want || want != int64(n)*ptc.TotalPlacedBytes() {
			t.Fatalf("n=%d: replicated %d bytes batched, %d tensor by tensor over the wire, %d in process; want %d",
				n, got, slow, want, int64(n)*ptc.TotalPlacedBytes())
		}
		// One /upload-batch a device is the load's.
		if b, ub, q, u := wire.requests("/batch"), wire.requests("/upload-batch")-len(devs), wire.requests("/query"), wire.requests("/upload"); b != len(devs) || ub != len(devs) || q != 0 || u != 0 {
			t.Fatalf("n=%d: batched replicate made %d /batch, %d /upload-batch, %d /query, %d /upload requests; want %d, %d, 0, 0",
				n, b, ub, q, u, len(devs), len(devs))
		}
		if q, u := hidden.requests("/query"), hidden.requests("/upload")-uploads; q != placed || u != n*placed {
			t.Fatalf("n=%d: tensor-by-tensor replicate made %d /query and %d /upload requests, want %d and %d", n, q, u, placed, n*placed)
		}
		ref := replicaTrees(t, job, devs, local)
		for name, stores := range map[string]map[cluster.DeviceID]store.Access{"batched": wire.stores, "tensor by tensor": hidden.stores} {
			trees := replicaTrees(t, job, devs, stores)
			for _, d := range devs {
				if len(trees[d]) != len(ref[d]) || len(ref[d]) == 0 {
					t.Fatalf("n=%d, %s: store %d holds %d replicas, want %d (> 0)", n, name, d, len(trees[d]), len(ref[d]))
				}
				for p, x := range ref[d] {
					if y, ok := trees[d][p]; !ok || !x.Equal(y) {
						t.Fatalf("n=%d, %s: store %d: replica %s differs from the in-process loop's (present %v)", n, name, d, p, ok)
					}
				}
			}
		}
	}
}
