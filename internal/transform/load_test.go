package transform

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tenplex/internal/chaos"
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

// isStrided reports whether reg is more than one gapless span of a
// row-major tensor of shape: past the last dimension it cuts short, it
// must take one index of every dimension.
func isStrided(shape []int, reg tensor.Region) bool {
	i := len(shape) - 1
	for i > 0 && reg[i].Lo == 0 && reg[i].Hi == shape[i] {
		i--
	}
	for i--; i >= 0; i-- {
		if reg[i].Len() != 1 {
			return true
		}
	}
	return false
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
				if isStrided(ptc.Tensors[s.Tensor].Shape, s.Region) {
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

// Every device is tried, by batch or tensor by tensor; the error is the
// first failed device's, in the PTC's order, whichever answered first.
func TestLoadPTCReportsFirstFailedDevice(t *testing.T) {
	ptc := loadLayouts[0].build(t)
	for _, batched := range []bool{true, false} {
		var mu sync.Mutex
		asked := map[cluster.DeviceID]int{}
		rc := newRestCluster(t, ptc.Devices, func(d cluster.DeviceID, next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				asked[d]++
				mu.Unlock()
				if d == 1 || d == 2 {
					http.Error(w, "out of service", http.StatusServiceUnavailable)
					return
				}
				next.ServeHTTP(w, r)
			})
		})
		stores := rc.stores
		if !batched {
			stores = hideBatch(stores)
		}
		err := LoadPTC("job0", ptc, stores, goldenState(ptc))
		if err == nil || !strings.Contains(err.Error(), "transform: upload to dev 1:") || strings.Contains(err.Error(), "dev 2") {
			t.Fatalf("batched %v: error %v, want device 1's alone", batched, err)
		}
		mu.Lock()
		never := slices.DeleteFunc(slices.Clone(ptc.Devices), func(d cluster.DeviceID) bool { return asked[d] > 0 })
		mu.Unlock()
		if len(never) > 0 {
			t.Fatalf("batched %v: devices %v were never sent anything", batched, never)
		}
		if got := rc.requests("/upload-batch"); batched && got != len(ptc.Devices) {
			t.Fatalf("%d /upload-batch requests, want one to each of %d devices", got, len(ptc.Devices))
		}
	}
}

// A sub-tensor whose source is missing is found before anything is
// uploaded, even when only the last device holds it: no store is left
// with part of a deploy.
func TestLoadPTCChecksEverySourceFirst(t *testing.T) {
	ptc := buildPTC(t, model.GPTCustom(2, 16, 2, 64, 8), parallel.Config{TP: 1, PP: 2, DP: 1}, alloc(2))
	last := ptc.Devices[len(ptc.Devices)-1]
	first := map[core.TensorID]bool{}
	for _, s := range ptc.Place[ptc.Devices[0]] {
		first[s.Tensor] = true
	}
	var missing core.TensorID
	for _, s := range ptc.Place[last] {
		if !first[s.Tensor] {
			missing = s.Tensor
		}
	}
	if missing == "" {
		t.Fatal("the last device holds nothing the first does not")
	}
	golden := goldenState(ptc)
	delete(golden, missing)
	for name, stores := range map[string]map[cluster.DeviceID]store.Access{
		"in-process": localStores(ptc.Devices),
		"wire":       newRestCluster(t, ptc.Devices, nil).stores,
	} {
		err := LoadPTC("job0", ptc, stores, golden)
		if err == nil || !strings.Contains(err.Error(), string(missing)) {
			t.Fatalf("%s: error %v, want the missing %q", name, err, missing)
		}
		for d, tree := range storeTrees(t, "/", ptc.Devices, stores) {
			if len(tree) != 0 {
				t.Fatalf("%s: device %d holds %d files of a refused deploy", name, d, len(tree))
			}
		}
	}
}

// LoadPTC and ReadPTC leave the same stores and return the same errors
// at one worker and at eight, over in-process stores and over chaos-
// wrapped ones: faults drawn on uploads, and faults drawn on the reads of
// a complete deploy.
func TestLoadReadPTCSameAtAnyWidth(t *testing.T) {
	const job = "job0"
	ptc := loadLayouts[1].build(t)
	golden := goldenState(ptc)
	type outcome struct {
		load, read string
		trees      map[cluster.DeviceID]map[string]*tensor.Tensor
		back       map[core.TensorID]*tensor.Tensor
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	run := func(procs int, faults string) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		local := localStores(ptc.Devices)
		stores := local
		in := chaos.NewInjector(chaos.Plan{Seed: 11, StoreFaultRate: 0.03})
		if faults != "" {
			stores = map[cluster.DeviceID]store.Access{}
			for d, acc := range local {
				stores[d] = in.WrapAccess(job, fmt.Sprint(d), acc)
			}
		}
		if faults == "load" {
			in.BeginAttempt(job, 1)
		}
		var o outcome
		o.load = errText(LoadPTC(job, ptc, stores, golden))
		if faults == "read" {
			in.BeginAttempt(job, 2)
		}
		back, err := ReadPTC(job, ptc, stores)
		o.read, o.back = errText(err), back
		o.trees = storeTrees(t, "/", ptc.Devices, local)
		return o
	}
	for _, faults := range []string{"", "disarmed", "load", "read"} {
		one, eight := run(1, faults), run(8, faults)
		if one.load != eight.load || one.read != eight.read {
			t.Fatalf("faults %q: errors (%q, %q) at one worker, (%q, %q) at eight", faults, one.load, one.read, eight.load, eight.read)
		}
		switch faults {
		case "", "disarmed":
			if one.load != "" || one.read != "" {
				t.Fatalf("faults %q: errors %q, %q", faults, one.load, one.read)
			}
		case "load":
			if !strings.HasPrefix(one.load, "transform: upload to dev ") || one.read == "" {
				t.Fatalf("armed load: errors %q, %q; want an upload fault and a failed read", one.load, one.read)
			}
		case "read":
			if one.load != "" || !strings.HasPrefix(one.read, "transform: read ") {
				t.Fatalf("armed read: errors %q, %q; want a read fault alone", one.load, one.read)
			}
		}
		for _, d := range ptc.Devices {
			a, b := one.trees[d], eight.trees[d]
			if len(a) != len(b) {
				t.Fatalf("faults %q: device %d holds %d files at one worker, %d at eight", faults, d, len(a), len(b))
			}
			for p, x := range a {
				if y, ok := b[p]; !ok || !x.Equal(y) {
					t.Fatalf("faults %q: device %d: %s differs between one worker and eight (present %v)", faults, d, p, ok)
				}
			}
		}
		if one.read == "" {
			for id, want := range golden {
				if !one.back[id].Equal(want) || !eight.back[id].Equal(want) {
					t.Fatalf("faults %q: ReadPTC returned wrong bytes for %s", faults, id)
				}
			}
		}
	}
}

// ReadPTC walks tensors in ID order, not in map order: with two
// unreadable tensors every call names the same one, and every call
// sends each wire store the same /batch body.
func TestReadPTCIsOrderIndependent(t *testing.T) {
	const job, calls = "job0", 20
	ptc := loadLayouts[0].build(t)
	golden := goldenState(ptc)

	stores := localStores(ptc.Devices)
	if err := LoadPTC(job, ptc, stores, golden); err != nil {
		t.Fatal(err)
	}
	ids := slices.Sorted(maps.Keys(ptc.Tensors))
	for _, id := range []core.TensorID{ids[len(ids)/2], ids[len(ids)-1]} {
		for _, d := range ptc.Devices {
			_ = stores[d].Delete(ModelPath(job, d, id))
		}
	}
	texts := map[string]bool{}
	for range calls {
		_, err := ReadPTC(job, ptc, stores)
		if err == nil {
			t.Fatal("read of deleted tensors succeeded")
		}
		texts[err.Error()] = true
	}
	if len(texts) != 1 {
		t.Fatalf("%d calls gave %d different errors: %v", calls, len(texts), texts)
	}
	for text := range texts {
		if !strings.Contains(text, fmt.Sprintf("%q", ids[len(ids)/2])) {
			t.Fatalf("error %q does not name %q, the first unreadable tensor in ID order", text, ids[len(ids)/2])
		}
	}

	var mu sync.Mutex
	bodies := map[cluster.DeviceID][][]byte{}
	rc := newRestCluster(t, ptc.Devices, func(d cluster.DeviceID, next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/batch" {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				mu.Lock()
				bodies[d] = append(bodies[d], body)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			next.ServeHTTP(w, r)
		})
	})
	if err := LoadPTC(job, ptc, rc.stores, golden); err != nil {
		t.Fatal(err)
	}
	for range calls {
		if _, err := ReadPTC(job, ptc, rc.stores); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, d := range ptc.Devices {
		if len(bodies[d]) != calls {
			t.Fatalf("device %d got %d /batch requests in %d reads", d, len(bodies[d]), calls)
		}
		for i, b := range bodies[d][1:] {
			if !bytes.Equal(b, bodies[d][0]) {
				t.Fatalf("device %d: /batch body of read %d differs from the first read's", d, i+2)
			}
		}
	}
}

// A canceled load returns the context's error. A load canceled while its
// batches are on their way leaves no device storing anything: each
// server is left with a body that stops short. An in-process load starts
// no upload once a worker has seen the cancel.
func TestLoadPTCCancelMidBatch(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
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
	})

	t.Run("local", func(t *testing.T) {
		// Canceled after the third upload: the worker that canceled uploads
		// nothing more to its device, and each other worker finishes at most
		// the upload it had started; with one worker the load stops at
		// exactly 3.
		ptc := loadLayouts[1].build(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		uc := &uploadCanceler{after: 3, cancel: cancel}
		stores := map[cluster.DeviceID]store.Access{}
		for d, acc := range localStores(ptc.Devices) {
			stores[d] = cancelingUploader{acc, d, uc}
		}
		if err := LoadPTCContext(ctx, "job0", ptc, stores, goldenState(ptc)); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled load: error %v, want context.Canceled", err)
		}
		workers := min(runtime.GOMAXPROCS(0), len(ptc.Devices))
		if n := uc.uploads.Load(); n < 3 || n > int64(3+workers-1) {
			t.Fatalf("canceled load made %d uploads on %d workers, want 3 to %d", n, workers, 3+workers-1)
		}
		if n := uc.late.Load(); n != 0 {
			t.Fatalf("%d uploads to the canceling device started after the cancel", n)
		}
	})
}

// uploadCanceler calls cancel when the after-th upload across every store
// sharing it has landed, and counts the uploads to that upload's device
// that start afterwards.
type uploadCanceler struct {
	uploads, late atomic.Int64
	after         int64
	cancel        context.CancelFunc
	canceled      atomic.Int64 // 1 + the device whose upload canceled; 0 before
}

// cancelingUploader is one device's store under a shared uploadCanceler.
type cancelingUploader struct {
	store.Access
	dev cluster.DeviceID
	c   *uploadCanceler
}

func (a cancelingUploader) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	c, me := a.c, int64(a.dev)+1
	if c.canceled.Load() == me {
		c.late.Add(1)
	}
	err := a.Access.UploadFrom(path, dt, shape, r)
	if c.uploads.Add(1) == c.after {
		c.canceled.Store(me)
		c.cancel()
	}
	return err
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

// storeTrees is what each store holds under dir.
func storeTrees(t *testing.T, dir string, devs []cluster.DeviceID, stores map[cluster.DeviceID]store.Access) map[cluster.DeviceID]map[string]*tensor.Tensor {
	t.Helper()
	out := map[cluster.DeviceID]map[string]*tensor.Tensor{}
	for _, d := range devs {
		out[d] = map[string]*tensor.Tensor{}
		storedTree(t, stores[d], dir, out[d])
	}
	return out
}

// LoadPTC never hands an in-process store a tensor the caller keeps:
// state the caller changes after a deploy, whole tensors included, is
// not what the stores hold.
func TestLoadPTCDoesNotAliasCallerTensors(t *testing.T) {
	const job = "job0"
	ptc := loadLayouts[1].build(t) // DP replicas and unsplit tensors: views that cover whole tensors
	golden := goldenState(ptc)
	whole := 0
	for _, d := range ptc.Devices {
		for _, s := range ptc.Place[d] {
			if _, ok := golden[s.Tensor].View(s.Region).Whole(); ok {
				whole++
			}
		}
	}
	if whole == 0 {
		t.Fatal("no placement covers a whole tensor; the layout does not test aliasing")
	}
	kept := map[core.TensorID]*tensor.Tensor{}
	for id, x := range golden {
		kept[id] = x.Clone()
	}
	stores := localStores(ptc.Devices)
	if err := LoadPTC(job, ptc, stores, golden); err != nil {
		t.Fatal(err)
	}
	for _, x := range golden {
		x.FillSeq(-1, 0)
	}
	verifyAgainstGolden(t, job, ptc, stores, kept)
}
