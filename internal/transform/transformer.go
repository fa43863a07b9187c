// Package transform implements the State Transformer (§5.1): the
// component that executes a reconfiguration plan against the Tensor
// Stores of the cluster. Fetches read exactly the sub-tensor ranges the
// plan requires (splits are range-reads, merges are local assembly),
// stage the new partitions next to the old ones, and atomically commit
// when every assignment has landed: one rename of the staged tree over
// the live one per device store that staged anything, and no other
// request.
//
// An apply is one program and one executor (batch.go): the program says
// what every destination device stages, and the executor gives each
// destination one worker, as the paper's per-worker transformers do,
// then commits. A destination sub-tensor is served one of two ways.
// Between tenplex-store daemons the destination store pulls its ranges
// from its peers itself, and this process moves no state at all.
// Otherwise it is allocated here exactly once and every plan range is
// fetched into its final strided offset before it is handed to the
// store, so a byte moves from source holder to destination buffer
// exactly once. The fetch-then-assemble pipeline this replaced lives on
// in reference_test.go, as the reference the equivalence suites hold
// Apply byte-identical to.
package transform

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/obs"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// StorageReader provides ranges of base tensors from persisted
// checkpoints in remote storage; the plan falls back to it when no
// surviving device holds a range (failure recovery).
type StorageReader interface {
	ReadRange(id core.TensorID, reg tensor.Region) (*tensor.Tensor, error)
}

// StorageRangeWriter is optionally implemented by StorageReaders that
// can scatter a checkpointed range directly into a destination buffer
// (checkpoint.Reader does). When available, storage-fallback recovery
// rides the same single-copy path as device fetches; otherwise the
// transformer falls back to ReadRange plus one extra copy.
type StorageRangeWriter interface {
	ReadRangeInto(id core.TensorID, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error)
}

// ModelPath returns the canonical Tensor Store path of a model-state
// tensor: the hierarchy mirrors the layered model structure, scoped by
// job and device (cf. "/2/embedding/weight" in §5.2). Built by
// concatenation, not fmt — it runs once per fetch on the hot path.
func ModelPath(job string, dev cluster.DeviceID, id core.TensorID) string {
	return "/job/" + job + "/model/dev" + strconv.Itoa(int(dev)) + "/" + string(id)
}

// stagingPath is where new partitions accumulate before commit.
func stagingPath(job string, dev cluster.DeviceID, id core.TensorID) string {
	return "/job/" + job + "/model.next/dev" + strconv.Itoa(int(dev)) + "/" + string(id)
}

// ModelRoot is the live model tree of job on a device store. Exported
// for the coordinator's transactional rollback, which wipes it before
// restoring the last checkpoint.
func ModelRoot(job string) string { return "/job/" + job + "/model" }

// StagingRoot is the staged-state tree awaiting commit; rollback wipes
// it alongside ModelRoot.
func StagingRoot(job string) string { return "/job/" + job + "/model.next" }

// Transformer executes plans. One logical Transformer drives all
// devices here; in a real deployment each worker runs one instance and
// executes the subset of assignments destined for its devices — the
// code path is identical because every store is reached through the
// store.Access interface (local or REST).
type Transformer struct {
	// Job scopes all store paths.
	Job string
	// Stores maps every device to its Tensor Store.
	Stores map[cluster.DeviceID]store.Access
	// Storage reads persisted checkpoints; may be nil if the plan has
	// no storage fetches.
	Storage StorageReader
	// Parallelism bounds how many destinations stage at once, and how
	// many commit at once; <= 0 means 8.
	Parallelism int
	// Obs, when non-nil and datapath-deep, records one span per
	// assignment (tensor, device, bytes by source, allocation) under
	// the owning change's parent span. Nil costs nothing.
	Obs *obs.TaskCtx
	// Metrics, when non-nil, absorbs a successful apply's Stats into
	// the shared registry under transform.* counters. Nil costs
	// nothing.
	Metrics *obs.Registry
}

// Stats reports what an Apply did.
type Stats struct {
	Assignments  int
	Noops        int
	LocalBytes   int64 // fetched from the destination device itself
	PeerBytes    int64 // fetched from other devices' stores
	StorageBytes int64 // fetched from checkpoint storage
	// BytesCopied counts every byte the data path physically copied
	// between buffers (store reads into destinations, assembly copies,
	// upload copies into non-reference stores; for assignments a
	// destination store assembled itself, the bytes that store reports
	// having scatter-written). The ratio BytesCopied/PlanBytes is the
	// data path's copy amplification: 1.0 means every byte moved exactly
	// once.
	BytesCopied int64
	// AllocBytes counts tensor buffer bytes allocated on the data path
	// (destination sub-tensors, wherever they were allocated, plus the
	// intermediate tensor of a checkpoint range read through a
	// StorageReader that cannot scatter).
	AllocBytes int64
	Duration   time.Duration
}

// PlanBytes returns the bytes the plan asked to move: every fetched
// range counted once, whatever its source.
func (s Stats) PlanBytes() int64 { return s.LocalBytes + s.PeerBytes + s.StorageBytes }

// add counts the staged assignment a, whose own counters are o.
func (s *Stats) add(a core.Assignment, o Stats) {
	s.Assignments++
	if a.IsNoop() {
		s.Noops++
	}
	s.merge(o)
}

// fetched counts n plan bytes of assignment a read from device src.
func (s *Stats) fetched(a core.Assignment, src cluster.DeviceID, n int64) {
	if src == a.Device {
		s.LocalBytes += n
	} else {
		s.PeerBytes += n
	}
}

// merge folds the counters of o into s.
func (s *Stats) merge(o Stats) {
	s.Assignments += o.Assignments
	s.Noops += o.Noops
	s.LocalBytes += o.LocalBytes
	s.PeerBytes += o.PeerBytes
	s.StorageBytes += o.StorageBytes
	s.BytesCopied += o.BytesCopied
	s.AllocBytes += o.AllocBytes
}

// Apply executes the plan: every destination sub-tensor is built in
// the staging area of its device's store, and once all assignments
// succeed the staged tree replaces the live model state on every
// destination device. On error nothing is committed and any partially
// staged state is removed.
func (tr *Transformer) Apply(plan *core.Plan) (Stats, error) {
	return tr.ApplyContext(context.Background(), plan)
}

// ApplyContext is Apply under a caller-supplied context. The first
// fatal assignment error cancels the whole apply: the worker pool
// abandons queued destinations and in-flight fetches through
// context-aware stores are interrupted, so a doomed reconfiguration
// stops moving bytes as soon as its outcome is known. Canceling ctx
// externally aborts the apply the same way (nothing is committed,
// staging is cleaned up).
func (tr *Transformer) ApplyContext(ctx context.Context, plan *core.Plan) (Stats, error) {
	start := time.Now()
	if err := plan.Validate(); err != nil {
		return Stats{}, fmt.Errorf("transform: invalid plan: %w", err)
	}
	if err := tr.checkOneRegionPerTensor(plan); err != nil {
		return Stats{}, err
	}
	for _, d := range plan.To.Devices {
		if _, ok := tr.Stores[d]; !ok {
			return Stats{}, fmt.Errorf("transform: no store for destination device %d", d)
		}
	}

	prog := newProgram(tr.Job, plan, tr.Stores)
	st, err := tr.stage(ctx, prog)
	if err != nil {
		tr.cleanupStaging(ctx, plan)
		return st, err
	}
	if err := tr.commit(ctx, prog); err != nil {
		return st, err
	}
	st.Duration = time.Since(start)
	tr.recordStats(st)
	return st, nil
}

// recordStats absorbs one successful apply's Stats into the shared
// registry. Integer counter addition is commutative, so concurrent
// applies of independent jobs keep the totals deterministic for a
// deterministic workload.
func (tr *Transformer) recordStats(st Stats) {
	reg := tr.Metrics
	if reg == nil {
		return
	}
	reg.Add("transform.applies", 1)
	reg.Add("transform.assignments", int64(st.Assignments))
	reg.Add("transform.noops", int64(st.Noops))
	reg.Add("transform.local_bytes", st.LocalBytes)
	reg.Add("transform.peer_bytes", st.PeerBytes)
	reg.Add("transform.storage_bytes", st.StorageBytes)
	reg.Add("transform.bytes_copied", st.BytesCopied)
	reg.Add("transform.alloc_bytes", st.AllocBytes)
	reg.Histogram("transform.apply_ns").Observe(st.Duration.Nanoseconds())
}

// fetchInto streams one plan range into its final offset inside out,
// from the source store's range read or from checkpoint storage, and
// counts it in st. Its regions are cut from *arena.
func (tr *Transformer) fetchInto(ctx context.Context, a core.Assignment, f core.Fetch, dt tensor.DType, out *tensor.Tensor,
	st *Stats, arena *[]tensor.Range) error {
	bytes := f.Want.NumBytes(dt)
	target, local := fetchRegions(arena, a, f)
	switch f.Src.Kind {
	case core.FromDevice:
		src, ok := tr.Stores[f.Src.Device]
		if !ok {
			return fmt.Errorf("transform: no store for source device %d", f.Src.Device)
		}
		n, err := store.WithContext(src).QueryIntoContext(ctx, ModelPath(tr.Job, f.Src.Device, a.Tensor), local, out, target)
		if err != nil {
			return fmt.Errorf("transform: fetch %s%v from dev %d: %w", a.Tensor, f.Want, f.Src.Device, err)
		}
		st.BytesCopied += n
		st.fetched(a, f.Src.Device, bytes)
	case core.FromStorage:
		if tr.Storage == nil {
			return fmt.Errorf("transform: plan needs storage for %s%v but no StorageReader configured", a.Tensor, f.Want)
		}
		if rw, ok := tr.Storage.(StorageRangeWriter); ok {
			n, err := rw.ReadRangeInto(a.Tensor, f.Want, out, target)
			if err != nil {
				return fmt.Errorf("transform: storage read %s%v: %w", a.Tensor, f.Want, err)
			}
			st.BytesCopied += n
		} else {
			t, err := tr.Storage.ReadRange(a.Tensor, f.Want)
			if err != nil {
				return fmt.Errorf("transform: storage read %s%v: %w", a.Tensor, f.Want, err)
			}
			n, err := tensor.CopyRegion(out, target, t, tensor.FullRegion(t.Shape()))
			if err != nil {
				return fmt.Errorf("transform: storage scatter %s%v: %w", a.Tensor, f.Want, err)
			}
			st.AllocBytes += int64(t.NumBytes())
			st.BytesCopied += int64(t.NumBytes()) + n
		}
		st.StorageBytes += bytes
	}
	return nil
}

// uploadCopies reports whether uploading to acc copies the tensor's
// bytes (remote stores) rather than retaining them by reference
// (in-process stores).
func uploadCopies(acc store.Access) bool {
	ru, ok := acc.(store.RefUploader)
	return !(ok && ru.UploadsByReference())
}

// cleanupStaging removes partially staged state from every destination
// device after a failed apply, so the live tree is all that remains and
// a retry starts clean. It runs detached from the apply's cancellation
// (the common trigger IS a canceled ctx) but routes through the stores'
// context-aware deletes, which stay bounded by the client's per-request
// timeout.
func (tr *Transformer) cleanupStaging(ctx context.Context, plan *core.Plan) {
	ctx = context.WithoutCancel(ctx)
	for _, d := range plan.To.Devices {
		if acc, ok := tr.Stores[d]; ok {
			_ = store.WithContext(acc).DeleteContext(ctx, StagingRoot(tr.Job)) // may not exist
		}
	}
}

// commit swaps the staged tree into place on every destination of the
// program's commit list and clears stale model state on the departing
// devices. A commit is one Rename of the staged tree over the live tree,
// which store.Access.Rename replaces whole and at once, so the device is
// never without a model tree; a destination the plan assigned nothing
// has nothing staged and is sent nothing. Once staging has fully
// succeeded the swap is the point of no return, so it runs detached from
// the apply's cancellation: a ctx canceled in the commit window must not
// strand a half-committed job. Devices do not wait for each other: the
// renames run on the apply's workers, every device is tried whatever
// happened to another, and the error names each one that did not commit
// (joined, in the plan's device order) instead of hiding the rest behind
// the first. The departing devices give up their old state only after
// every destination has committed, together: a failed commit leaves a
// migrating job's previous copy where it was.
func (tr *Transformer) commit(ctx context.Context, prog *program) error {
	ctx = context.WithoutCancel(ctx)
	swap := prog.commit
	errs := make([]error, len(swap))
	runBounded(ctx, tr.parallelism(), len(swap), func(i int) {
		if err := store.WithContext(tr.Stores[swap[i]]).RenameContext(ctx, StagingRoot(tr.Job), ModelRoot(tr.Job)); err != nil {
			errs[i] = fmt.Errorf("transform: commit on dev %d: %w", swap[i], err)
		}
	})
	if err := errors.Join(errs...); err != nil { // the devices that failed, in the plan's order
		return err
	}
	// Devices that held state before but are not in the new allocation
	// release it so the scheduler can hand their memory to other jobs.
	var leaving []store.Access
	for _, d := range prog.departing {
		if acc, ok := tr.Stores[d]; ok {
			leaving = append(leaving, acc)
		}
	}
	runBounded(ctx, tr.parallelism(), len(leaving), func(i int) {
		_ = store.WithContext(leaving[i]).DeleteContext(ctx, ModelRoot(tr.Job))
	})
	return nil
}

// parallelism is how many workers an apply runs its stores' operations
// on.
func (tr *Transformer) parallelism() int {
	if tr.Parallelism <= 0 {
		return defaultParallelism
	}
	return tr.Parallelism
}

// defaultParallelism is how many store operations run at once where no
// caller said otherwise.
const defaultParallelism = 8

// checkOneRegionPerTensor enforces the store layout invariant: a device
// holds at most one sub-tensor per base tensor (one file per tensor
// path). Every parallelization the parallel package produces satisfies
// it.
func (tr *Transformer) checkOneRegionPerTensor(plan *core.Plan) error {
	for _, ptc := range []*core.PTC{plan.From, plan.To} {
		if d, id, ok := ptc.OneRegionPerTensor(); !ok {
			return fmt.Errorf("transform: device %d holds multiple regions of %q; unsupported store layout", d, id)
		}
	}
	return nil
}

// LoadPTC materializes PTC state into the stores: every device's
// sub-tensors stream out of the provided full tensors straight into
// each store (region views of the full tensors are what is sent, so no
// intermediate sub-tensor is sliced out, and no store is handed a tensor
// the caller keeps). Every source is looked up before the first upload,
// so a missing one leaves the stores as they were. WriteDevices then
// loads up to eight devices at once; the error is the first failed
// device's, in PTC order.
func LoadPTC(job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access,
	full map[core.TensorID]*tensor.Tensor) error {
	return LoadPTCContext(context.Background(), job, ptc, stores, full)
}

// LoadPTCContext is LoadPTC under a caller-supplied context: no upload
// starts once ctx is canceled, and against context-aware stores
// cancellation aborts the ones in flight; its error is or wraps
// ctx.Err().
func LoadPTCContext(ctx context.Context, job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access,
	full map[core.TensorID]*tensor.Tensor) error {
	items := make([][]store.UploadItem, len(ptc.Devices))
	for g, d := range ptc.Devices {
		items[g] = make([]store.UploadItem, len(ptc.Place[d]))
		for i, s := range ptc.Place[d] {
			src, ok := full[s.Tensor]
			if !ok {
				return fmt.Errorf("transform: no source tensor for %q", s.Tensor)
			}
			items[g][i] = store.UploadItem{Path: ModelPath(job, d, s.Tensor), View: src.View(s.Region)}
		}
	}
	return WriteDevices(ctx, defaultParallelism, ptc.Devices, stores, true, func(g int) ([]store.UploadItem, error) {
		return items[g], nil
	})
}

// ReadPTC gathers the full tensors of a PTC back out of the stores —
// the inverse of LoadPTC, used to hand a resumed job its merged state
// and to verify reconfigurations end to end. Each full tensor is
// allocated once and every distinct sub-tensor is read directly into
// its offset, from the first device in rank order that holds it
// (replicas once). Tensors are taken in ID order, which fixes the
// entries of every batch and the error. What a store that cannot batch
// holds is read range by range by a worker that owns the tensor and
// allocates it, up to GOMAXPROCS tensors at once; every such tensor is
// attempted, and the first failed one in ID order is the error. Then a
// batch-capable store serves all of its device's sub-tensors in one
// round trip, those devices concurrently, and the first failed device
// in PTC order is the error.
func ReadPTC(job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access) (map[core.TensorID]*tensor.Tensor, error) {
	return ReadPTCContext(context.Background(), job, ptc, stores)
}

// ReadPTCContext is ReadPTC under a caller-supplied context: no range
// read starts once ctx is canceled and, against context-aware stores,
// the batch in flight stops; its error is or wraps ctx.Err().
func ReadPTCContext(ctx context.Context, job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access) (map[core.TensorID]*tensor.Tensor, error) {
	// Who holds which region of each tensor, replicas once.
	type holder struct {
		dev   cluster.DeviceID
		acc   store.Access
		batch bool
		reg   tensor.Region
	}
	holders := make(map[core.TensorID][]holder, len(ptc.Tensors))
	for g, subs := range ptc.Unique() {
		if len(subs) == 0 {
			continue
		}
		d := ptc.Devices[g]
		acc, ok := stores[d]
		if !ok {
			return nil, fmt.Errorf("transform: no store for device %d", d)
		}
		_, batch := acc.(store.BatchQuerier)
		for _, s := range subs {
			holders[s.Tensor] = append(holders[s.Tensor], holder{d, acc, batch, s.Region})
		}
	}
	ids := slices.Sorted(maps.Keys(ptc.Tensors))
	fulls := make([]*tensor.Tensor, len(ids))
	var singles []int                                  // positions in ids of the tensors a non-batch store holds part of
	reads := map[cluster.DeviceID][]store.BatchEntry{} // what each batch-capable store serves
	for i, id := range ids {
		meta := ptc.Tensors[id]
		covered, single := 0, false
		for _, h := range holders[id] {
			covered += h.reg.NumElems()
			if !h.batch {
				single = true
				continue
			}
			if fulls[i] == nil {
				fulls[i] = tensor.New(meta.DType, meta.Shape...)
			}
			reads[h.dev] = append(reads[h.dev], store.BatchEntry{Path: ModelPath(job, h.dev, id), Dst: fulls[i], At: h.reg})
		}
		if elems := tensor.ShapeNumElems(meta.Shape); covered < elems {
			return nil, fmt.Errorf("transform: assemble %q: holders cover %d of %d elements", id, covered, elems)
		}
		if single {
			singles = append(singles, i)
		}
	}
	errs := make([]error, len(singles))
	runBounded(ctx, runtime.GOMAXPROCS(0), len(singles), func(k int) {
		i := singles[k]
		id := ids[i]
		if fulls[i] == nil {
			meta := ptc.Tensors[id]
			fulls[i] = tensor.New(meta.DType, meta.Shape...)
		}
		for _, h := range holders[id] {
			if h.batch {
				continue
			}
			if _, err := store.WithContext(h.acc).QueryIntoContext(ctx, ModelPath(job, h.dev, id), nil, fulls[i], h.reg); err != nil {
				errs[k] = fmt.Errorf("transform: read %q from dev %d: %w", id, h.dev, err)
				return
			}
		}
	})
	if err := firstError(ctx, errs); err != nil {
		return nil, err
	}
	// One round trip per batch-capable store instead of one per tensor,
	// all of them at once; the first failed device (in PTC order) is the
	// error.
	batched := slices.DeleteFunc(slices.Clone(ptc.Devices), func(d cluster.DeviceID) bool { return len(reads[d]) == 0 })
	errs = make([]error, len(batched))
	runBounded(ctx, len(batched), len(batched), func(k int) {
		d := batched[k]
		if _, err := stores[d].(store.BatchQuerier).BatchQueryInto(ctx, reads[d]); err != nil {
			errs[k] = fmt.Errorf("transform: read from dev %d: %w", d, err)
		}
	})
	if err := firstError(ctx, errs); err != nil {
		return nil, err
	}
	out := make(map[core.TensorID]*tensor.Tensor, len(ids))
	for i, id := range ids {
		out[id] = fulls[i]
	}
	return out, nil
}
