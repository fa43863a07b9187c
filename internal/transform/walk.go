package transform

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// The device walk. Every move of a job's state between its device stores
// and this process — a deploy (LoadPTC), a checkpoint's save and restore
// (package checkpoint), a job's verify — follows
// one rule per device: a store that takes batches is sent one request,
// any other store one call per tensor, and the devices run on one
// bounded fan-out, FanOut. The callers say what moves; ReadDevices and
// WriteDevices move it.

// ReadDevices reads, for every device ptc.Devices[g], the sub-tensors
// subs[g] of its model state (see FanOut for how many at once). A store
// that takes batches (store.BatchQuerier) is read in one BatchQueryInto
// into fresh buffers; any other store gets one Query per sub-tensor,
// which an in-process store answers with the tensor it holds. got
// receives each device's tensors, in the order of subs[g], as soon as
// they are all in, one device at a time.
func ReadDevices(ctx context.Context, par int, job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access,
	subs [][]core.SubTensor, got func(g int, ts []*tensor.Tensor) error) error {
	var mu sync.Mutex
	return FanOut[store.BatchQuerier](ctx, par, ptc.Devices, stores, func(g int, acc store.Access) error {
		if len(subs[g]) == 0 {
			return nil
		}
		ts, err := ReadDevice(ctx, job, ptc, ptc.Devices[g], subs[g], nil, acc)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return got(g, ts)
	})
}

// ReadDevice reads the sub-tensors subs of device d's model state from
// its store acc: a store that takes batches in one BatchQueryInto, into
// the tensors into (shaped like subs) or, when into is nil, into fresh
// ones; any other store with one Query per sub-tensor, which an
// in-process store answers with the tensor it holds.
func ReadDevice(ctx context.Context, job string, ptc *core.PTC, d cluster.DeviceID, subs []core.SubTensor,
	into []*tensor.Tensor, acc store.Access) ([]*tensor.Tensor, error) {
	ts := make([]*tensor.Tensor, len(subs))
	bq, batch := acc.(store.BatchQuerier)
	if !batch {
		ca := store.WithContext(acc)
		for i, s := range subs {
			t, err := ca.QueryContext(ctx, ModelPath(job, d, s.Tensor), nil)
			if err != nil {
				return nil, fmt.Errorf("transform: read %q from dev %d: %w", s.Tensor, d, err)
			}
			ts[i] = t
		}
		return ts, nil
	}
	entries := make([]store.BatchEntry, len(subs))
	// The device's model paths, cut from one string arena.
	prefix := ModelPath(job, d, "")
	var paths tensor.StringArena
	var buf []byte
	for i, s := range subs {
		meta, ok := ptc.Tensors[s.Tensor]
		if !ok {
			return nil, fmt.Errorf("transform: no metadata for %q", s.Tensor)
		}
		buf = append(append(buf[:0], prefix...), s.Tensor...)
		if into != nil {
			ts[i] = into[i]
		} else {
			ts[i] = tensor.NewFromRegion(meta.DType, s.Region)
		}
		entries[i] = store.BatchEntry{Path: paths.Cut(buf), Dst: ts[i]}
	}
	if _, err := bq.BatchQueryInto(ctx, entries); err != nil {
		return nil, fmt.Errorf("transform: read from dev %d: %w", d, err)
	}
	return ts, nil
}

// WriteDevices sends every device devs[k] the items that items(k)
// returns (see FanOut for how many at once). items runs on the device's
// worker, so what it allocates is held for that many devices at a time.
// A store that takes batches (store.BatchUploader) is sent one
// UploadBatch; any other store one call per item. If keep is set, the
// items view tensors the caller keeps, and such a store is sent a copy
// (UploadFrom); otherwise each item views the whole of a tensor handed
// over, which is uploaded by reference (Upload).
func WriteDevices(ctx context.Context, par int, devs []cluster.DeviceID, stores map[cluster.DeviceID]store.Access,
	keep bool, items func(k int) ([]store.UploadItem, error)) error {
	return FanOut[store.BatchUploader](ctx, par, devs, stores, func(k int, acc store.Access) error {
		its, err := items(k)
		if err != nil || len(its) == 0 {
			return err
		}
		if err := writeDevice(ctx, acc, keep, its); err != nil {
			return fmt.Errorf("transform: upload to dev %d: %w", devs[k], err)
		}
		return nil
	})
}

// writeDevice uploads its to acc.
func writeDevice(ctx context.Context, acc store.Access, keep bool, its []store.UploadItem) error {
	if bu, ok := acc.(store.BatchUploader); ok {
		return bu.UploadBatch(ctx, its)
	}
	ca := store.WithContext(acc)
	for _, it := range its {
		var err error
		if t, whole := it.View.Whole(); whole && !keep {
			err = ca.UploadContext(ctx, it.Path, t)
		} else {
			err = ca.UploadFromContext(ctx, it.Path, it.View.DType(), it.View.Shape(), it.View.Reader())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// FanOut runs move(k, its store) for every device devs[k] on up to par
// workers, one device a worker, and no more workers than cores when no
// store implements C (the capability that makes a move one round trip):
// the one rule for how many devices move at once. With one worker the
// devices go in devs order, which is the order of an in-process run,
// store operation by store operation. Every device is attempted; the
// error is the first failed one's, in devs order.
func FanOut[C any](ctx context.Context, par int, devs []cluster.DeviceID, stores map[cluster.DeviceID]store.Access,
	move func(k int, acc store.Access) error) error {
	width := min(par, runtime.GOMAXPROCS(0))
	for _, d := range devs {
		acc, ok := stores[d]
		if !ok {
			return fmt.Errorf("transform: no store for device %d", d)
		}
		if _, batch := acc.(C); batch {
			width = par
		}
	}
	errs := make([]error, len(devs))
	runBounded(ctx, width, len(devs), func(k int) { errs[k] = move(k, stores[devs[k]]) })
	return firstError(ctx, errs)
}

// firstError returns the first non-nil error of errs or, if there is
// none, ctx.Err(): a canceled walk may have left items unstarted.
func firstError(ctx context.Context, errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// The chunk rule. A walk that streams a job's state through this
// process without holding it whole — checkpoint.Restore writing it, a
// job's verify reading it back — cuts each device's distinct sub-tensors
// into chunks of at most ChunkBytes (Chunks) and holds at most
// ChunksInFlight chunks at a time, one buffer of a ChunkPool each,
// whatever the size of the job.
const (
	ChunkBytes     = 1 << 20
	ChunksInFlight = 3
)

// Chunks cuts list, in its order, into runs of at most ChunkBytes; a
// larger sub-tensor is a run of its own.
func Chunks(ptc *core.PTC, list []core.SubTensor) [][]core.SubTensor {
	var (
		out   [][]core.SubTensor
		start int
		bytes int64
	)
	for i, s := range list {
		n := s.NumBytes(ptc.Tensors[s.Tensor])
		if i > start && bytes+n > ChunkBytes {
			out, start, bytes = append(out, list[start:i]), i, 0
		}
		bytes += n
	}
	if start < len(list) {
		out = append(out, list[start:])
	}
	return out
}

// ChunkPool is the chunk buffers one walk may hold: taking one waits
// while all of them are in flight, which is what bounds the bytes in
// flight.
type ChunkPool chan *tensor.Slab

// spare keeps the chunk buffers of finished walks for the next one:
// fresh memory is faulted in page by page, which costs about as much as
// filling it, and the runtime hands memory back to the system between
// jobs.
var spare = make(chan *tensor.Slab, ChunksInFlight)

// NewChunkPool returns ChunksInFlight buffers, spare ones first.
func NewChunkPool() ChunkPool {
	p := make(ChunkPool, ChunksInFlight)
	for range ChunksInFlight {
		select {
		case s := <-spare:
			p <- s
		default:
			p <- new(tensor.Slab)
		}
	}
	return p
}

// Close waits for every buffer to be back and keeps them spare.
func (p ChunkPool) Close() {
	for range ChunksInFlight {
		s := <-p
		select {
		case spare <- s:
		default:
		}
	}
}
