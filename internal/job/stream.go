package job

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"

	"tenplex/internal/checkpoint"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// DeploySeed deploys the job's initial state, InitState(r.Model, seed),
// under ptc, built from (cfg, alloc), and makes that the job's placement.
// The state is checkpoint step r.Step, a manifest naming the seed
// (checkpoint.Seed): it holds no bytes and serves any range by
// generating it. checkpoint.Restore puts it on the stores, and only then
// is the manifest filed, so a fail-stop recovery always has a storage
// fallback for the ranges whose replicas are all lost. Devices are
// checked as Deploy checks them.
func (r *Runtime) DeploySeed(ctx context.Context, ptc *core.PTC, cfg parallel.Config, alloc cluster.Allocation, seed int64) error {
	if err := r.checkDevices(ptc); err != nil {
		return err
	}
	rd := checkpoint.Seed(r.Name, r.Step, ptc.Name, initFills(r.Model, seed))
	if err := checkpoint.Restore(ctx, rd, r.Name, ptc, r.Stores); err != nil {
		return err
	}
	r.adopt(ptc, cfg, alloc)
	return checkpoint.SaveSeed(r.Storage, rd, r.Stores)
}

// Verify checks the job's state against InitState(r.Model, seed) bit for
// bit — the end-to-end correctness oracle — without holding either
// whole. Every tensor must be covered by the placement, as ReadPTC
// demands. Then every distinct sub-tensor (ptc.Unique) is read back from
// its device, a chunk at a time per device (transform.Chunks) and the
// devices at once as transform.FanOut allows, and each chunk, as it
// lands, is compared with the regions it should hold, generated and
// compared in one pass on up to GOMAXPROCS workers while the next chunks
// are read. The first device whose read fails, in placement order, is
// the error; else the first bad tensor in ID order, every time.
func (r *Runtime) Verify(ctx context.Context, seed int64) error {
	fills := initFills(r.Model, seed)
	ids := slices.Sorted(maps.Keys(fills))
	unique := r.PTC.Unique()
	covered := make(map[core.TensorID]int, len(fills))
	for _, subs := range unique {
		for _, s := range subs {
			covered[s.Tensor] += s.Region.NumElems()
		}
	}
	for _, id := range ids {
		if n := tensor.ShapeNumElems(fills[id].Shape); covered[id] < n {
			return fmt.Errorf("lost tensor %s: holders cover %d of %d elements", id, covered[id], n)
		}
	}
	if err := r.checkDevices(r.PTC); err != nil {
		return err
	}

	type read struct {
		subs []core.SubTensor
		ts   []*tensor.Tensor
		buf  *tensor.Slab
	}
	pool := transform.NewChunkPool()
	landed := make(chan read, transform.ChunksInFlight) // one place per buffer: sending never waits
	var (
		mu      sync.Mutex
		bad     = map[core.TensorID]bool{}
		workers sync.WaitGroup
	)
	for range runtime.GOMAXPROCS(0) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for c := range landed {
				for i, s := range c.subs {
					if f, ok := fills[s.Tensor]; ok && !f.EqualRegion(s.Region, c.ts[i]) {
						mu.Lock()
						bad[s.Tensor] = true
						mu.Unlock()
					}
				}
				pool <- c.buf
			}
		}()
	}
	err := transform.FanOut[store.BatchQuerier](ctx, len(r.PTC.Devices), r.PTC.Devices, r.Stores, func(g int, acc store.Access) error {
		_, batch := acc.(store.BatchQuerier)
		for _, c := range transform.Chunks(r.PTC, unique[g]) {
			buf := <-pool
			n := 0
			for _, s := range c {
				n += int(s.NumBytes(r.PTC.Tensors[s.Tensor]))
			}
			// A store that batches reads the chunk into the buffer (a
			// lone sub-tensor larger than that into a fresh one); any
			// other answers with the tensors it holds.
			var into []*tensor.Tensor
			if batch && n <= transform.ChunkBytes {
				buf.Reset(n)
				into = make([]*tensor.Tensor, len(c))
				for i, s := range c {
					into[i] = buf.New(r.PTC.Tensors[s.Tensor].DType, s.Region)
				}
			}
			ts, err := transform.ReadDevice(ctx, r.Name, r.PTC, r.PTC.Devices[g], c, into, acc)
			if err != nil {
				pool <- buf
				return err
			}
			landed <- read{c, ts, buf}
		}
		return nil
	})
	close(landed)
	workers.Wait()
	pool.Close()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if bad[id] {
			return fmt.Errorf("corrupted tensor %s", id)
		}
	}
	return nil
}
