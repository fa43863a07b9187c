package checkpoint

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"sort"
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

func alloc(n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(i)
	}
	return out
}

func localStores(n int) map[cluster.DeviceID]store.Access {
	out := map[cluster.DeviceID]store.Access{}
	for i := 0; i < n; i++ {
		out[cluster.DeviceID(i)] = store.Local{FS: store.NewMemFS()}
	}
	return out
}

func goldenFor(ptc *core.PTC) map[core.TensorID]*tensor.Tensor {
	out := map[core.TensorID]*tensor.Tensor{}
	seed := 1.0
	for id, meta := range ptc.Tensors {
		full := tensor.New(meta.DType, meta.Shape...)
		full.FillSeq(seed*7777, 1)
		seed++
		out[id] = full
	}
	return out
}

func setup(t *testing.T, cfg parallel.Config, n int) (*core.PTC, map[cluster.DeviceID]store.Access, map[core.TensorID]*tensor.Tensor) {
	t.Helper()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	ptc, err := parallel.BuildPTC(m, cfg, alloc(n))
	if err != nil {
		t.Fatal(err)
	}
	stores := localStores(n)
	golden := goldenFor(ptc)
	if err := transform.LoadPTC("job0", ptc, stores, golden); err != nil {
		t.Fatal(err)
	}
	return ptc, stores, golden
}

func TestSaveOpenRestoreSameConfig(t *testing.T) {
	cfg := parallel.Config{TP: 2, PP: 1, DP: 1}
	ptc, stores, golden := setup(t, cfg, 2)
	storage := store.Local{FS: store.NewMemFS()}

	if err := Save(storage, "job0", 100, ptc, stores); err != nil {
		t.Fatal(err)
	}
	step, err := Latest(storage, "job0")
	if err != nil || step != 100 {
		t.Fatalf("Latest = %d, %v", step, err)
	}
	r, err := Open(storage, "job0", 100)
	if err != nil {
		t.Fatal(err)
	}
	// Restore into fresh stores.
	fresh := localStores(2)
	if err := Restore(context.Background(), r, "job0", ptc, fresh); err != nil {
		t.Fatal(err)
	}
	for _, d := range ptc.Devices {
		for _, s := range ptc.Place[d] {
			got, err := fresh[d].Query(transform.ModelPath("job0", d, s.Tensor), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(golden[s.Tensor].Slice(s.Region)) {
				t.Fatalf("restored %s%v differs", s.Tensor, s.Region)
			}
		}
	}
}

func TestRestoreIntoDifferentParallelization(t *testing.T) {
	// Checkpoint under TP=2, restore under TP=4 on 4 devices: ranges
	// must re-shard across the partition boundary.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	fromCfg := parallel.Config{TP: 2, PP: 1, DP: 1}
	ptc, stores, golden := setup(t, fromCfg, 2)
	storage := store.Local{FS: store.NewMemFS()}
	if err := Save(storage, "job0", 7, ptc, stores); err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, "job0", 7)
	if err != nil {
		t.Fatal(err)
	}
	toPTC, err := parallel.BuildPTC(m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	if err != nil {
		t.Fatal(err)
	}
	fresh := localStores(4)
	if err := Restore(context.Background(), r, "job0", toPTC, fresh); err != nil {
		t.Fatal(err)
	}
	for _, d := range toPTC.Devices {
		for _, s := range toPTC.Place[d] {
			got, err := fresh[d].Query(transform.ModelPath("job0", d, s.Tensor), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(golden[s.Tensor].Slice(s.Region)) {
				t.Fatalf("resharded restore of %s%v differs", s.Tensor, s.Region)
			}
		}
	}
}

func TestReadRangeSpansPieces(t *testing.T) {
	// TP=2 slices qkv [48,16] into two [24,16] pieces; a read of rows
	// 20..30 spans both.
	cfg := parallel.Config{TP: 2, PP: 1, DP: 1}
	ptc, stores, golden := setup(t, cfg, 2)
	storage := store.Local{FS: store.NewMemFS()}
	if err := Save(storage, "job0", 1, ptc, stores); err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, "job0", 1)
	if err != nil {
		t.Fatal(err)
	}
	id := core.TensorID("block.0/attn/qkv/weight")
	want := tensor.Region{{Lo: 20, Hi: 30}, {Lo: 0, Hi: 16}}
	got, err := r.ReadRange(id, want)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(golden[id].Slice(want)) {
		t.Fatal("cross-piece range read wrong")
	}
	// Unknown tensor and uncovered range error.
	if _, err := r.ReadRange("nope", want); err == nil {
		t.Fatal("unknown tensor read succeeded")
	}
}

func TestSaveDeduplicatesReplicas(t *testing.T) {
	// DP=2: both replicas hold identical sub-tensors; the checkpoint
	// must store each sub-tensor once.
	cfg := parallel.Config{TP: 1, PP: 1, DP: 2}
	ptc, stores, _ := setup(t, cfg, 2)
	fs := store.NewMemFS()
	storage := store.Local{FS: fs}
	if err := Save(storage, "job0", 3, ptc, stores); err != nil {
		t.Fatal(err)
	}
	m := model.GPTCustom(2, 16, 2, 64, 8)
	// Stored bytes = one model copy (plus the small manifest).
	tensors := int64(0)
	_ = fs.Walk("/", func(p string, st store.Stat) error {
		if !st.IsBlob {
			tensors += int64(st.Bytes)
		}
		return nil
	})
	if tensors != m.ParamBytes() {
		t.Fatalf("checkpoint stores %d bytes, want one copy = %d", tensors, m.ParamBytes())
	}
}

func TestLatestMissingJob(t *testing.T) {
	storage := store.Local{FS: store.NewMemFS()}
	if _, err := Latest(storage, "ghost"); err == nil {
		t.Fatal("Latest of missing job succeeded")
	}
	if _, err := Open(storage, "ghost", 1); err == nil {
		t.Fatal("Open of missing checkpoint succeeded")
	}
}

func TestCheckpointAsPlanStorageFallback(t *testing.T) {
	// End-to-end failure recovery: checkpoint, lose a device, generate a
	// plan with storage fallback, execute with the checkpoint Reader.
	m := model.GPTCustom(2, 16, 2, 64, 8)
	cfg := parallel.Config{TP: 2, PP: 1, DP: 1}
	ptc, stores, golden := setup(t, cfg, 2)
	storage := store.Local{FS: store.NewMemFS()}
	if err := Save(storage, "job0", 50, ptc, stores); err != nil {
		t.Fatal(err)
	}
	degraded := ptc.WithoutDevices(1)
	toPTC, err := parallel.BuildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.GeneratePlan(degraded, toPTC, core.PlanOptions{StorageFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, "job0", 50)
	if err != nil {
		t.Fatal(err)
	}
	tr := &transform.Transformer{Job: "job0", Stores: stores, Storage: r}
	st, err := tr.Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.StorageBytes == 0 {
		t.Fatal("recovery should read from storage")
	}
	got, err := stores[0].Query(transform.ModelPath("job0", 0, "block.0/attn/qkv/weight"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(golden["block.0/attn/qkv/weight"]) {
		t.Fatal("recovered tensor differs from checkpointed state")
	}
}

func TestManifestIsReadableJSON(t *testing.T) {
	cfg := parallel.Config{TP: 1, PP: 2, DP: 1}
	ptc, stores, _ := setup(t, cfg, 2)
	fs := store.NewMemFS()
	if err := Save(store.Local{FS: fs}, "job0", 9, ptc, stores); err != nil {
		t.Fatal(err)
	}
	blob, err := fs.GetBlob("/ckpt/job0/step00000009/meta.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "\"pieces\"") || !strings.Contains(string(blob), "block.0") {
		t.Fatalf("manifest unexpected: %s", blob)
	}
}

// countingBatch is a wire store seen through a wrapper that records how
// many batch reads are in flight at once.
type countingBatch struct {
	store.Access
	bq                    store.BatchQuerier
	mu                    *sync.Mutex
	inFlight, peak, calls *int
}

func (c countingBatch) BatchQueryInto(ctx context.Context, entries []store.BatchEntry) (store.BatchStats, error) {
	c.mu.Lock()
	*c.calls++
	if *c.inFlight++; *c.inFlight > *c.peak {
		*c.peak = *c.inFlight
	}
	c.mu.Unlock()
	time.Sleep(5 * time.Millisecond) // long enough for the next device to start, if it may
	st, err := c.bq.BatchQueryInto(ctx, entries)
	c.mu.Lock()
	*c.inFlight--
	c.mu.Unlock()
	return st, err
}

// Against wire stores Save reads each device in one batch, holds no
// more than saveDevicesInFlight devices' state at a time, and writes the
// same checkpoint as it does from in-process stores; a device store
// that is gone fails the save before a manifest is written.
func TestSaveFromWireStores(t *testing.T) {
	cfg := parallel.Config{TP: 4, PP: 1, DP: 1}
	ptc, local, golden := setup(t, cfg, 4)
	want := store.NewMemFS()
	if err := Save(store.Local{FS: want}, "job0", 7, ptc, local); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var inFlight, peak, calls int
	wire := map[cluster.DeviceID]store.Access{}
	var servers []*httptest.Server
	for _, d := range ptc.Devices {
		hs := httptest.NewServer(store.NewServer(store.NewMemFS()))
		defer hs.Close()
		servers = append(servers, hs)
		c := &store.Client{Base: hs.URL, HTTP: hs.Client()}
		wire[d] = countingBatch{Access: c, bq: c, mu: &mu, inFlight: &inFlight, peak: &peak, calls: &calls}
	}
	wire[3] = store.Local{FS: store.NewMemFS()} // a mixed set: one in-process store
	if err := transform.LoadPTC("job0", ptc, wire, golden); err != nil {
		t.Fatal(err)
	}
	got := store.NewMemFS()
	if err := Save(store.Local{FS: got}, "job0", 7, ptc, wire); err != nil {
		t.Fatal(err)
	}
	if calls != 3 || peak != saveDevicesInFlight {
		t.Fatalf("%d batch reads, at most %d at once; want 3 and %d", calls, peak, saveDevicesInFlight)
	}
	files := 0
	err := want.Walk("/", func(p string, st store.Stat) error {
		files++
		if st.IsBlob {
			a, _ := want.GetBlob(p)
			b, err := got.GetBlob(p)
			if err != nil || !bytes.Equal(a, b) {
				t.Errorf("blob %s differs from the in-process save (err %v)", p, err)
			}
			return nil
		}
		a, _ := want.GetTensor(p)
		b, err := got.GetTensor(p)
		if err != nil || !a.Equal(b) {
			t.Errorf("piece %s differs from the in-process save (err %v)", p, err)
		}
		return nil
	})
	if err != nil || files == 0 {
		t.Fatalf("walked %d files, err %v", files, err)
	}

	servers[1].Close()
	failed := store.NewMemFS()
	err = Save(store.Local{FS: failed}, "job0", 8, ptc, wire)
	if err == nil || !strings.Contains(err.Error(), "dev 1") {
		t.Fatalf("Save with device 1 gone returned %v", err)
	}
	if _, err := Latest(store.Local{FS: failed}, "job0"); err == nil {
		t.Fatal("a failed save left a latest marker")
	}
}

// A job keeps one checkpoint: every save removes the step the latest
// marker named before it, and nothing else under the job's root.
func TestSaveKeepsOnlyLatestStep(t *testing.T) {
	ptc, stores, golden := setup(t, parallel.Config{TP: 2, PP: 1, DP: 2}, 4)
	fs := store.NewMemFS()
	storage := store.Local{FS: fs}
	for step := 3; step <= 7; step++ {
		if err := Save(storage, "job0", step, ptc, stores); err != nil {
			t.Fatal(err)
		}
		dirs, err := fs.List("/ckpt/job0")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(dirs)
		if want := []string{"latest", fmt.Sprintf("step%08d/", step)}; !reflect.DeepEqual(dirs, want) {
			t.Fatalf("after saving step %d storage holds %v, want %v", step, dirs, want)
		}
	}
	// Saving the step the marker already names must not remove it.
	if err := Save(storage, "job0", 7, ptc, stores); err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, "job0", 7)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range golden {
		got, err := r.ReadRange(id, tensor.FullRegion(want.Shape()))
		if err != nil || !got.Equal(want) {
			t.Fatalf("tensor %s does not read back from the kept step (err %v)", id, err)
		}
	}
}

// failingAccess is a device store whose reads fail once armed.
type failingAccess struct {
	store.Access
	armed *bool
}

func (f failingAccess) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	if *f.armed {
		return nil, fmt.Errorf("device store gone")
	}
	return f.Access.Query(path, reg)
}

// The previous step goes only after the new one is complete: a device
// store that fails mid-save leaves the old step, and the marker naming
// it, restorable.
func TestFailedSaveLeavesPreviousStep(t *testing.T) {
	ptc, stores, golden := setup(t, parallel.Config{TP: 4, PP: 1, DP: 1}, 4)
	armed := false
	stores[2] = failingAccess{Access: stores[2], armed: &armed}
	fs := store.NewMemFS()
	storage := store.Local{FS: fs}
	if err := Save(storage, "job0", 1, ptc, stores); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := Save(storage, "job0", 2, ptc, stores); err == nil || !strings.Contains(err.Error(), "dev 2") {
		t.Fatalf("Save with device 2 failing returned %v", err)
	}
	step, err := Latest(storage, "job0")
	if err != nil || step != 1 {
		t.Fatalf("latest marker names step %d (err %v) after a failed save, want 1", step, err)
	}
	r, err := Open(storage, "job0", step)
	if err != nil {
		t.Fatal(err)
	}
	restored := localStores(4)
	if err := Restore(context.Background(), r, "job0", ptc, restored); err != nil {
		t.Fatalf("previous checkpoint no longer restores: %v", err)
	}
	state, err := transform.ReadPTC("job0", ptc, restored)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range golden {
		if !state[id].Equal(want) {
			t.Fatalf("tensor %s restored from the previous step differs", id)
		}
	}
}

// refusingStorage is checkpoint storage that takes n more tensors and
// then refuses.
type refusingStorage struct {
	store.Local
	n *int
}

func (s refusingStorage) Upload(path string, t *tensor.Tensor) error {
	if *s.n--; *s.n < 0 {
		return fmt.Errorf("storage full")
	}
	return s.Local.Upload(path, t)
}

// seeded describes the state of ptc as seeded fills, tensor i in ID order
// from seed+i, and materializes it.
func seeded(ptc *core.PTC, seed int64) (map[core.TensorID]tensor.RandDense, map[core.TensorID]*tensor.Tensor) {
	gens := map[core.TensorID]tensor.RandDense{}
	golden := map[core.TensorID]*tensor.Tensor{}
	ids := make([]core.TensorID, 0, len(ptc.Tensors))
	for id := range ptc.Tensors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, id := range ids {
		meta := ptc.Tensors[id]
		gens[id] = tensor.RandDense{DType: meta.DType, Shape: meta.Shape, Seed: seed + int64(i), Scale: 0.05}
		golden[id] = tensor.New(meta.DType, meta.Shape...)
		golden[id].FillRandDense(seed+int64(i), 0.05)
	}
	return gens, golden
}

// A seed baseline — what a deploy files in place of reading back the
// state it has just generated and sent out — is a checkpoint like any
// other that holds no bytes: one generated piece per tensor; it restores
// bit for bit under a parallelization it was never cut for, serves the
// ranges a fail-stop recovery has lost, and is replaced by the next save,
// unless that save fails half-way, which leaves it, and the marker
// naming it, in place.
func TestSaveSeedBaseline(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	ptc, err := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	if err != nil {
		t.Fatal(err)
	}
	gens, golden := seeded(ptc, 11)
	stores := localStores(2)
	if err := transform.LoadPTC("job0", ptc, stores, golden); err != nil {
		t.Fatal(err)
	}
	fs := store.NewMemFS()
	storage := store.Local{FS: fs}
	if err := SaveSeed(storage, Seed("job0", 0, ptc.Name, gens), stores); err != nil {
		t.Fatal(err)
	}
	if n := fs.TotalBytes(); n > 64<<10 {
		t.Fatalf("a seed baseline of %d tensors takes %d bytes of storage", len(gens), n)
	}
	r, err := Open(storage, "job0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta.Config != ptc.Name || len(r.Meta.Pieces) != len(golden) {
		t.Fatalf("manifest names %q with %d tensors, want %q with %d", r.Meta.Config, len(r.Meta.Pieces), ptc.Name, len(golden))
	}
	for id, g := range gens {
		ps := r.Meta.Pieces[string(id)]
		if len(ps) != 1 || ps[0].Gen == nil || !reflect.DeepEqual(*ps[0].Gen, g) || ps[0].Path != "" {
			t.Fatalf("tensor %s: pieces %+v, want one naming its seed", id, ps)
		}
		got, err := r.ReadRange(id, tensor.FullRegion(g.Shape))
		if err != nil || !got.Equal(golden[id]) {
			t.Fatalf("tensor %s: read back differs (err %v)", id, err)
		}
	}

	// Restored under TP=4 on four devices.
	toPTC, err := parallel.BuildPTC(m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	if err != nil {
		t.Fatal(err)
	}
	fresh := localStores(4)
	if err := Restore(context.Background(), r, "job0", toPTC, fresh); err != nil {
		t.Fatal(err)
	}
	sameState := func(what string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access) {
		t.Helper()
		state, err := transform.ReadPTC("job0", ptc, stores)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for id, want := range golden {
			if !state[id].Equal(want) {
				t.Fatalf("%s: tensor %s differs", what, id)
			}
		}
	}
	sameState("restored under TP=4", toPTC, fresh)

	// Device 1 is lost with no replica: its half of every TP-split tensor
	// is generated.
	onePTC, err := parallel.BuildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.GeneratePlan(ptc.WithoutDevices(1), onePTC, core.PlanOptions{StorageFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := (&transform.Transformer{Job: "job0", Stores: stores, Storage: r}).Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	if st.StorageBytes == 0 {
		t.Fatal("recovery read nothing from storage")
	}
	sameState("recovered onto device 0", onePTC, stores)

	// A save to peers that fails half-way leaves the baseline, and the
	// marker naming it, in place, and nothing of itself on the stores.
	refusing := map[cluster.DeviceID]store.Access{0: stores[0], 1: refusingDevice{Local: stores[1].(store.Local)}}
	if err := SaveToPeers(context.Background(), storage, "job0", 1, onePTC, cluster.Cloud(4), refusing); err == nil {
		t.Fatal("SaveToPeers onto a store that refuses every piece succeeded")
	}
	if step, err := Latest(storage, "job0"); err != nil || step != 0 {
		t.Fatalf("latest marker names step %d (err %v), want 0", step, err)
	}
	if names, _ := stores[1].List(peerRoot("job0", 1)); len(names) != 0 {
		t.Fatalf("the failed save left %d pieces behind", len(names))
	}
	// The next save that succeeds replaces it.
	if err := SaveToPeers(context.Background(), storage, "job0", 1, onePTC, cluster.Cloud(4), stores); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(storage, "job0", 0); err == nil {
		t.Fatal("the baseline outlived the save after it")
	}
	if r, err = Open(storage, "job0", 1); err != nil {
		t.Fatal(err)
	}
	r.Stores = stores
	fresh = localStores(4)
	if err := Restore(context.Background(), r, "job0", toPTC, fresh); err != nil {
		t.Fatal(err)
	}
	sameState("restored from the save after the baseline", toPTC, fresh)
}

// refusingDevice is an in-process device store that refuses every
// upload.
type refusingDevice struct{ store.Local }

func (refusingDevice) Upload(path string, _ *tensor.Tensor) error {
	return fmt.Errorf("%s: store full", path)
}

// handedOver is an in-process device store that records every tensor it
// is handed and refuses to be sent a copy.
type handedOver struct {
	store.Local
	got map[string]*tensor.Tensor
}

func (h handedOver) Upload(path string, t *tensor.Tensor) error {
	h.got[path] = t
	return h.Local.Upload(path, t)
}

func (h handedOver) UploadFrom(path string, _ tensor.DType, _ []int, _ io.Reader) error {
	return fmt.Errorf("%s: sent a copy", path)
}

// Between in-process stores a checkpoint moves no payload byte it does
// not have to: Save stores each piece as the tensor the device store
// holds, and Restore hands every tensor it has read out of the
// checkpoint to its device store as it is.
func TestInProcessSaveRestoreCopyNothing(t *testing.T) {
	ptc, stores, golden := setup(t, parallel.Config{TP: 2, PP: 1, DP: 2}, 4)
	fs := store.NewMemFS()
	storage := store.Local{FS: fs}
	if err := Save(storage, "job0", 1, ptc, stores); err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, "job0", 1)
	if err != nil {
		t.Fatal(err)
	}
	held := map[*tensor.Tensor]bool{}
	for _, d := range ptc.Devices {
		for _, s := range ptc.Place[d] {
			x, _ := stores[d].Query(transform.ModelPath("job0", d, s.Tensor), nil)
			held[x] = true
		}
	}
	for id, pieces := range r.Meta.Pieces {
		for _, p := range pieces {
			if x, err := fs.GetTensor(p.Path); err != nil || !held[x] {
				t.Fatalf("piece %s of %s is not a tensor a device store holds (err %v)", p.Path, id, err)
			}
		}
	}

	restored := map[cluster.DeviceID]store.Access{}
	got := map[cluster.DeviceID]map[string]*tensor.Tensor{}
	for _, d := range ptc.Devices {
		got[d] = map[string]*tensor.Tensor{}
		restored[d] = handedOver{Local: store.Local{FS: store.NewMemFS()}, got: got[d]}
	}
	if err := Restore(context.Background(), r, "job0", ptc, restored); err != nil {
		t.Fatal(err)
	}
	for _, d := range ptc.Devices {
		if len(got[d]) != len(ptc.Place[d]) {
			t.Fatalf("dev %d was handed %d tensors, PTC places %d", d, len(got[d]), len(ptc.Place[d]))
		}
		for path, x := range got[d] {
			if y, err := restored[d].Query(path, nil); err != nil || y != x {
				t.Fatalf("dev %d does not hold the tensor it was handed at %s (err %v)", d, path, err)
			}
		}
	}
	state, err := transform.ReadPTC("job0", ptc, restored)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range golden {
		if !state[id].Equal(want) {
			t.Fatalf("tensor %s restored wrong", id)
		}
	}
}
