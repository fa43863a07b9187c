package job

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tenplex/internal/checkpoint"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// A job's initial state moves between this process and the stores twice:
// DeploySeed generates it into the stores, and Verify reads it back and
// checks it. Neither holds the state whole. Each device's distinct
// sub-tensors go in chunks of at most chunkBytes, and one deploy or
// verify holds at most chunksInFlight chunks at a time, generated,
// being sent, read or being checked, whatever the size of the job.
const (
	chunkBytes     = 1 << 20
	chunksInFlight = 3
)

// DeploySeed deploys the job's initial state, InitState(r.Model, seed),
// under ptc, built from (cfg, alloc), and makes that the job's placement.
// Every distinct sub-tensor (ptc.Unique) is generated once and sent to
// every device that holds it, a chunk at a time per device; the devices'
// chunks go at once (see eachDevice), so one device's chunk is generated
// while another's is on its way. An in-process store is handed the
// generated tensors by reference, replicas included: nothing else refers
// to them. The same state is then filed as checkpoint step r.Step, a
// manifest naming the seed: it holds no bytes and serves any range by
// generating it, so a fail-stop recovery always has a storage fallback
// for the ranges whose replicas are all lost. Devices are checked as
// Deploy checks them.
func (r *Runtime) DeploySeed(ctx context.Context, ptc *core.PTC, cfg parallel.Config, alloc cluster.Allocation, seed int64) error {
	if err := r.checkDevices(ptc); err != nil {
		return err
	}
	fills := initFills(r.Model, seed)
	unique := ptc.Unique()
	for _, list := range unique {
		for _, s := range list {
			if f, ok := fills[s.Tensor]; !ok || !s.Region.Valid(f.Shape) {
				return fmt.Errorf("job: %s%v is no region of the model's initial state", s.Tensor, s.Region)
			}
		}
	}
	pool := newChunkPool()
	errs := make([]error, len(unique))
	eachDevice(ptc, r.Stores, unique, isBatchUploader, func(g int) {
		for _, c := range chunks(ptc, unique[g]) {
			if errs[g] = r.sendChunk(ctx, ptc, fills, c, pool); errs[g] != nil {
				return
			}
		}
	})
	pool.close()
	if err := firstError(errs); err != nil {
		return err
	}
	r.adopt(ptc, cfg, alloc)
	return checkpoint.SaveSeed(r.Storage, r.Name, r.Step, ptc.Name, fills, r.Stores)
}

// sendChunk generates the sub-tensors c, into a chunk buffer when every
// store they go to copies what it is sent, and sends each to every
// device that holds it.
func (r *Runtime) sendChunk(ctx context.Context, ptc *core.PTC, fills map[core.TensorID]tensor.RandDense,
	c []core.SubTensor, pool chunkPool) error {
	var (
		devs  []cluster.DeviceID
		to    = make([][]int, len(c)) // the indices into devs each sub-tensor goes to
		bytes int
	)
	for i, s := range c {
		bytes += int(s.NumBytes(ptc.Tensors[s.Tensor]))
		for _, d := range ptc.Holders(s.Tensor, s.Region) {
			if !holdsExactly(ptc, d, s) {
				continue
			}
			k := slices.Index(devs, d)
			if k < 0 {
				k = len(devs)
				devs = append(devs, d)
			}
			to[i] = append(to[i], k)
		}
	}
	// A chunk buffer is reused, so it can only take what is copied out
	// of it, and only up to chunkBytes: it is kept between deploys.
	reuse := bytes <= chunkBytes && !slices.ContainsFunc(devs, func(d cluster.DeviceID) bool { return byReference(r.Stores[d]) })
	buf := <-pool
	defer func() { pool <- buf }()
	alloc := tensor.NewFromRegion
	if reuse {
		buf.Reset(bytes)
		alloc = buf.New
	}
	items := make([][]store.UploadItem, len(devs))
	for i, s := range c {
		f := fills[s.Tensor]
		ten := alloc(f.DType, s.Region)
		_ = f.FillRegion(s.Region, ten, nil) // DeploySeed checked the region
		for _, k := range to[i] {
			items[k] = append(items[k], store.UploadItem{Path: transform.ModelPath(r.Name, devs[k], s.Tensor), View: ten.FullView()})
		}
	}
	return transform.WriteDevices(ctx, len(devs), devs, r.Stores, false, func(k int) ([]store.UploadItem, error) {
		return items[k], nil
	})
}

// byReference reports whether acc keeps the tensors it is sent rather
// than a copy (an in-process store).
func byReference(acc store.Access) bool {
	ru, ok := acc.(store.RefUploader)
	return ok && ru.UploadsByReference()
}

// holdsExactly reports whether device d holds sub-tensor s itself, not
// only a region overlapping it.
func holdsExactly(ptc *core.PTC, d cluster.DeviceID, s core.SubTensor) bool {
	for _, h := range ptc.Place[d] {
		if h.Tensor == s.Tensor && h.Region.Equal(s.Region) {
			return true
		}
	}
	return false
}

// Verify checks the job's state against InitState(r.Model, seed) bit for
// bit — the end-to-end correctness oracle — without holding either
// whole. Every tensor must be covered by the placement, as ReadPTC
// demands. Then every distinct sub-tensor (ptc.Unique) is read back from
// its device, a chunk at a time per device and the devices at once (see
// eachDevice), and each chunk, as it lands, is compared with the regions
// it should hold, generated and compared in one pass on up to GOMAXPROCS
// workers while the next chunks are read. The first device whose read
// fails, in placement order, is the error; else the first bad tensor in
// ID order, every time.
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
	pool := newChunkPool()
	landed := make(chan read, chunksInFlight) // one place per buffer: sending never waits
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
	errs := make([]error, len(unique))
	eachDevice(r.PTC, r.Stores, unique, isBatchQuerier, func(g int) {
		d := r.PTC.Devices[g]
		acc := r.Stores[d]
		for _, c := range chunks(r.PTC, unique[g]) {
			buf := <-pool
			n := 0
			for _, s := range c {
				n += int(s.NumBytes(r.PTC.Tensors[s.Tensor]))
			}
			// A store that batches reads the chunk into the buffer (a
			// lone sub-tensor larger than that into a fresh one); any
			// other answers with the tensors it holds.
			var into []*tensor.Tensor
			if isBatchQuerier(acc) && n <= chunkBytes {
				buf.Reset(n)
				into = make([]*tensor.Tensor, len(c))
				for i, s := range c {
					into[i] = buf.New(r.PTC.Tensors[s.Tensor].DType, s.Region)
				}
			}
			ts, err := transform.ReadDevice(ctx, r.Name, r.PTC, d, c, into, acc)
			if err != nil {
				pool <- buf
				errs[g] = err
				return
			}
			landed <- read{c, ts, buf}
		}
	})
	close(landed)
	workers.Wait()
	pool.close()
	if err := firstError(errs); err != nil {
		return err
	}
	for _, id := range ids {
		if bad[id] {
			return fmt.Errorf("corrupted tensor %s", id)
		}
	}
	return nil
}

// chunks cuts list, the distinct sub-tensors of one device, in its
// order, into runs of at most chunkBytes; a larger sub-tensor is a run of
// its own.
func chunks(ptc *core.PTC, list []core.SubTensor) [][]core.SubTensor {
	var (
		out   [][]core.SubTensor
		start int
		bytes int64
	)
	for i, s := range list {
		n := s.NumBytes(ptc.Tensors[s.Tensor])
		if i > start && bytes+n > chunkBytes {
			out, start, bytes = append(out, list[start:i]), i, 0
		}
		bytes += n
	}
	if start < len(list) {
		out = append(out, list[start:])
	}
	return out
}

// eachDevice runs fn(g) for every device ptc.Devices[g] that unique
// lists anything for. When a store of the placement has the capability
// remote reports — one round trip moves a whole chunk, so the stores can
// work at once — every device gets a worker; otherwise at most
// GOMAXPROCS workers take the devices in placement order, which with one
// worker is the order of an in-process run, store operation by store
// operation.
func eachDevice(ptc *core.PTC, stores map[cluster.DeviceID]store.Access, unique [][]core.SubTensor,
	remote func(store.Access) bool, fn func(g int)) {
	width := runtime.GOMAXPROCS(0)
	for _, d := range ptc.Devices {
		if remote(stores[d]) {
			width = len(ptc.Devices)
			break
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		for g := int(next.Add(1)) - 1; g < len(unique); g = int(next.Add(1)) - 1 {
			if len(unique[g]) > 0 {
				fn(g)
			}
		}
	}
	for w := 1; w < min(width, len(unique)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

func isBatchQuerier(acc store.Access) bool {
	_, ok := acc.(store.BatchQuerier)
	return ok
}

func isBatchUploader(acc store.Access) bool {
	_, ok := acc.(store.BatchUploader)
	return ok
}

// firstError returns the first non-nil error of errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chunkPool is the chunk buffers one deploy or verify may hold: taking
// one waits while all of them are in flight, which is what bounds the
// bytes in flight.
type chunkPool chan *tensor.Slab

// spare keeps the chunk buffers of finished deploys and verifies for the
// next one: fresh memory is faulted in page by page, which costs about
// as much as filling it, and the runtime hands memory back to the system
// between jobs.
var spare = make(chan *tensor.Slab, chunksInFlight)

func newChunkPool() chunkPool {
	p := make(chunkPool, chunksInFlight)
	for range chunksInFlight {
		select {
		case s := <-spare:
			p <- s
		default:
			p <- new(tensor.Slab)
		}
	}
	return p
}

// close waits for every buffer to be back and keeps them spare.
func (p chunkPool) close() {
	for range chunksInFlight {
		s := <-p
		select {
		case spare <- s:
		default:
		}
	}
}
