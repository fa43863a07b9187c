package transform

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/obs"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// Staging. One loop (stage) takes every assignment of a plan to the
// staging tree of its destination store, whatever the stores are. What
// differs between store sets is how a fetch is served, decided per
// assignment and per fetch from what the code can observe about the
// stores involved, never by a setting:
//
//  1. Destination-pull. The destination store implements
//     store.Assembler and every source of the assignment is a device
//     store with a network address (store.Addressable): the transformer
//     sends the destination ONE /assemble request listing all such
//     assignments, and the store pulls the ranges from its peers itself,
//     copies what it already holds, and links no-op assignments by
//     pointer. No state byte enters this process. This is what happens
//     between real tenplex-store daemons.
//  2. Per-source batch. The source store implements store.BatchQuerier
//     and the assignment's targets are pairwise disjoint: the fetch is
//     deferred, grouped with every other such fetch from the same SOURCE
//     store, and issued as one store.BatchQueryInto into buffers
//     allocated here; the assignment uploads once its batches landed.
//  3. Immediate range read. Anything else — a store.Local source, a
//     checkpoint range, overlapping targets, a wrapper that hides the
//     batch capability — is one QueryInto (or storage read) from the
//     assignment's own worker.
//
// An assignment with nothing deferred uploads from its worker as soon as
// its last range is in, so with no batch-capable or assembling store in
// the plan — in-process setups, including the coordinator's
// deterministic sims and their golden obs traces — the pull and batch
// phases are empty and the loop is a plain worker pool over assignments.

// prep is one assignment moving through stage.
type prep struct {
	a core.Assignment
	// out is the destination buffer built here, until it is uploaded.
	out    *tensor.Tensor
	st     Stats
	start  time.Time
	err    error
	staged bool
	// pulled marks an assignment handed to its destination store; the
	// client-side passes skip it.
	pulled bool
}

// assembleGroup is the destination-pull work of one destination device:
// one store.Assemble request.
type assembleGroup struct {
	dev   cluster.DeviceID
	preps []*prep
	items []store.AssembleItem
	// st holds what the store reported having copied and allocated.
	st Stats
}

// batchFetch is one plan range deferred to a per-source batch: entry
// scatter-writes into p's destination buffer, and bytes is attributed
// to p's stats when the batch lands.
type batchFetch struct {
	src   cluster.DeviceID
	p     *prep
	entry store.BatchEntry
	bytes int64
}

// stage builds every destination sub-tensor of the plan in the staging
// tree of its device's store, on up to Parallelism workers. The first
// fatal error cancels the rest: queued assignments are abandoned and
// in-flight fetches through context-aware stores are interrupted. Only
// fully staged assignments contribute to the returned Stats; the error
// joins every assignment failure, sorted by message.
func (tr *Transformer) stage(ctx context.Context, plan *core.Plan) (Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	par := tr.parallelism()
	var (
		mu       sync.Mutex
		deferred []batchFetch
		waiting  []*prep // assignments with deferred fetches
		errs     []error
	)
	fail := func(err error) {
		mu.Lock()
		if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
			errs = append(errs, err)
		}
		mu.Unlock()
		cancel()
	}

	// Route: what a destination store can assemble by itself goes to it,
	// one request per destination device, in plan order.
	preps := make([]prep, len(plan.Assignments))
	var pulls []*assembleGroup
	byDev := map[cluster.DeviceID]*assembleGroup{}
	route := newPullRoute(tr.Job, plan)
	for i, a := range plan.Assignments {
		p := &preps[i]
		p.a = a
		item, ok := tr.assembleItem(plan, a, route)
		if !ok {
			continue
		}
		p.pulled = true
		g := byDev[a.Device]
		if g == nil {
			g = &assembleGroup{dev: a.Device}
			byDev[a.Device] = g
			pulls = append(pulls, g)
		}
		g.preps = append(g.preps, p)
		g.items = append(g.items, item)
	}
	runBounded(ctx, par, len(pulls), func(gi int) {
		g := pulls[gi]
		err := tr.stageAssembled(ctx, g)
		if err != nil {
			fail(err)
		}
		for _, p := range g.preps {
			p.err = err
			tr.recordSpan(ctx, p)
		}
	})

	// Everything else is built here: each worker allocates an
	// assignment's destination, serves its immediate fetches and, when
	// nothing was deferred, uploads it.
	runBounded(ctx, par, len(preps), func(i int) {
		p := &preps[i]
		if p.pulled {
			return
		}
		p.start = time.Now()
		later, err := tr.stageAssignment(ctx, plan, p)
		if err != nil {
			p.err = err
			fail(err)
		}
		if len(later) > 0 {
			mu.Lock()
			deferred = append(deferred, later...)
			waiting = append(waiting, p)
			mu.Unlock()
			return
		}
		tr.recordSpan(ctx, p)
	})

	groups := map[cluster.DeviceID][]batchFetch{}
	for _, bf := range deferred {
		groups[bf.src] = append(groups[bf.src], bf)
	}
	srcs := make([]cluster.DeviceID, 0, len(groups))
	for d := range groups {
		srcs = append(srcs, d)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	runBounded(ctx, par, len(srcs), func(gi int) {
		src := srcs[gi]
		group := groups[src]
		// Order entries by path then source range: that is the sequence
		// the server's coalescer sees, so adjacent ranges of one tensor
		// end up in consecutive entries and merge into single frames. It
		// also makes the request deterministic despite the concurrent
		// prep phase.
		sort.Slice(group, func(i, j int) bool {
			if group[i].entry.Path != group[j].entry.Path {
				return group[i].entry.Path < group[j].entry.Path
			}
			return regionLess(group[i].entry.Reg, group[j].entry.Reg)
		})
		entries := make([]store.BatchEntry, len(group))
		for i, bf := range group {
			entries[i] = bf.entry
		}
		bq := tr.Stores[src].(store.BatchQuerier)
		if _, err := bq.BatchQueryInto(ctx, entries); err != nil {
			fail(fmt.Errorf("transform: batch fetch from dev %d: %w", src, err))
			return
		}
		mu.Lock()
		for _, bf := range group {
			bf.p.st.BytesCopied += bf.bytes
			if src == bf.p.a.Device {
				bf.p.st.LocalBytes += bf.bytes
			} else {
				bf.p.st.PeerBytes += bf.bytes
			}
		}
		mu.Unlock()
	})

	runBounded(ctx, par, len(waiting), func(i int) {
		p := waiting[i]
		if p.err = tr.uploadStaged(ctx, p); p.err != nil {
			fail(p.err)
		}
		tr.recordSpan(ctx, p)
	})

	var st Stats
	for _, g := range pulls {
		st.merge(g.st)
	}
	for i := range preps {
		p := &preps[i]
		if !p.staged {
			continue
		}
		st.Assignments++
		if p.a.IsNoop() {
			st.Noops++
		}
		st.merge(p.st)
	}
	if len(errs) == 0 && ctx.Err() != nil {
		errs = append(errs, ctx.Err())
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return st, fmt.Errorf("transform: %d assignments failed: %w", len(errs), errors.Join(errs...))
	}
	return st, nil
}

// pullRoute is what the assemble items of one apply share, so that
// describing an assignment to its destination store allocates nothing
// per item or fetch: the paths are cut from one string arena, and the
// shapes, fetch lists and regions from one slice each, sized for the
// whole plan.
type pullRoute struct {
	plan           *core.Plan
	model, staging string // the roots ModelPath and stagingPath build under
	paths          tensor.StringArena
	scratch        []byte // the path being built
	dims           []int
	fetches        []store.AssembleFetch
	ranges         []tensor.Range
}

func newPullRoute(job string, plan *core.Plan) *pullRoute {
	return &pullRoute{plan: plan, model: ModelRoot(job), staging: StagingRoot(job)}
}

// reserve sizes the slices for every item and fetch of the plan, once,
// when the first item is described: one allocation each where growing
// by appends would allocate about as much again, and none for a plan no
// store assembles.
func (r *pullRoute) reserve() {
	if r.fetches != nil {
		return
	}
	var fetches, dims, ranges int
	for _, a := range r.plan.Assignments {
		fetches += len(a.Fetch)
		dims += len(a.Region)
		ranges += 2 * len(a.Fetch) * len(a.Region)
	}
	r.fetches = make([]store.AssembleFetch, 0, fetches)
	r.dims = make([]int, 0, dims)
	r.ranges = make([]tensor.Range, 0, ranges)
}

// path is root/dev<d>/<id>, what ModelPath and stagingPath build.
func (r *pullRoute) path(root string, d cluster.DeviceID, id core.TensorID) string {
	b := append(append(r.scratch[:0], root...), "/dev"...)
	b = append(append(strconv.AppendInt(b, int64(d), 10), '/'), id...)
	r.scratch = b
	return r.paths.Cut(b)
}

// shape is reg's shape.
func (r *pullRoute) shape(reg tensor.Region) []int {
	start := len(r.dims)
	for _, rg := range reg {
		r.dims = append(r.dims, rg.Len())
	}
	return r.dims[start:len(r.dims):len(r.dims)]
}

// assembleItem describes assignment a as a tensor for its destination
// store to build, or reports that the store cannot: it lacks the
// capability, a range comes from checkpoint storage or from a store
// without a network address, or targets overlap (ranges from different
// sources land concurrently on the store as they do here).
func (tr *Transformer) assembleItem(plan *core.Plan, a core.Assignment, route *pullRoute) (store.AssembleItem, bool) {
	self, ok := tr.Stores[a.Device].(interface {
		store.Assembler
		store.Addressable
	})
	if !ok || !a.IsNoop() && !tr.pullable(a) {
		return store.AssembleItem{}, false
	}
	route.reserve()
	item := store.AssembleItem{
		Path:  route.path(route.staging, a.Device, a.Tensor),
		DType: plan.To.Tensors[a.Tensor].DType,
		Shape: route.shape(a.Region),
	}
	if a.IsNoop() {
		item.Link = route.path(route.model, a.Device, a.Tensor)
		return item, true
	}
	start := len(route.fetches)
	for _, f := range a.Fetch {
		target, local := fetchRegions(&route.ranges, a, f)
		af := store.AssembleFetch{Path: route.path(route.model, f.Src.Device, a.Tensor), Reg: local, At: target}
		if addr := tr.Stores[f.Src.Device].(store.Addressable).Address(); addr != self.Address() {
			af.Source = addr
		}
		route.fetches = append(route.fetches, af)
	}
	item.Fetch = route.fetches[start:len(route.fetches):len(route.fetches)]
	return item, true
}

// pullable reports whether a store can pull all of a's ranges itself:
// every one comes from a device store with a network address, and the
// targets are disjoint.
func (tr *Transformer) pullable(a core.Assignment) bool {
	for _, f := range a.Fetch {
		if f.Src.Kind != core.FromDevice {
			return false
		}
		if _, ok := tr.Stores[f.Src.Device].(store.Addressable); !ok {
			return false
		}
	}
	return disjointTargets(a.Fetch)
}

// stageAssembled sends one destination store its assemble request and
// books the outcome; an error is the outcome of every assignment of the
// group. Plan bytes are attributed per assignment from the
// plan, as on the client-side routes; bytes copied and allocated are the
// store's own count, and the request fails unless the store accounts
// for exactly the bytes the plan asked of it.
func (tr *Transformer) stageAssembled(ctx context.Context, g *assembleGroup) error {
	start := time.Now()
	for _, p := range g.preps {
		p.start = start
	}
	as, err := tr.Stores[g.dev].(store.Assembler).Assemble(ctx, g.items)
	if err != nil {
		return fmt.Errorf("transform: assemble on dev %d: %w", g.dev, err)
	}
	var want int64
	for i, p := range g.preps {
		for _, f := range p.a.Fetch {
			n := f.Want.NumBytes(g.items[i].DType)
			if f.Src.Device == p.a.Device {
				p.st.LocalBytes += n
			} else {
				p.st.PeerBytes += n
			}
			want += n
		}
	}
	if got := as.BytesCopied + as.LinkedBytes; got != want {
		return fmt.Errorf("transform: assemble on dev %d: store accounts for %d bytes, plan asked for %d", g.dev, got, want)
	}
	for _, p := range g.preps {
		p.staged = true
	}
	g.st = Stats{BytesCopied: as.BytesCopied, AllocBytes: as.AllocBytes}
	return nil
}

// stageAssignment builds one destination sub-tensor: a noop against a
// reference-retaining store moves the existing tensor by pointer — no
// bytes copied or allocated at all; otherwise the destination is
// allocated once and every plan range fetched into its final strided
// offset. Ranges read from batch-capable device stores with
// pairwise-disjoint targets are returned for the batch phase, the upload
// following them there; everything else fetches immediately and, with
// nothing deferred, the tensor is uploaded before returning.
func (tr *Transformer) stageAssignment(ctx context.Context, plan *core.Plan, p *prep) ([]batchFetch, error) {
	a := p.a
	meta := plan.To.Tensors[a.Tensor]
	dst := tr.Stores[a.Device]

	if a.IsNoop() && !uploadCopies(dst) {
		if t, err := dst.Query(ModelPath(tr.Job, a.Device, a.Tensor), nil); err == nil {
			if err := store.WithContext(dst).UploadContext(ctx, stagingPath(tr.Job, a.Device, a.Tensor), t); err != nil {
				return nil, fmt.Errorf("transform: stage %s on dev %d: %w", a.Tensor, a.Device, err)
			}
			p.st.LocalBytes += a.Region.NumBytes(meta.DType)
			p.staged = true
			return nil, nil
		}
		// The sub-tensor is unexpectedly absent; fall through so the
		// general path reports the fetch error.
	}

	out := tensor.NewFromRegion(meta.DType, a.Region)
	p.out = out
	p.st.AllocBytes += int64(out.NumBytes())

	covered := 0
	for i := range a.Fetch {
		covered += a.Fetch[i].Want.NumElems()
	}
	if covered < a.Region.NumElems() {
		return nil, fmt.Errorf("transform: assemble %s%v: fetches cover %d of %d elements",
			a.Tensor, a.Region, covered, a.Region.NumElems())
	}

	// Overlapping targets force the immediate sequential path: batches
	// from different sources scatter concurrently, and two writers for
	// one destination byte would race.
	batchable := disjointTargets(a.Fetch)
	var later []batchFetch
	var ranges []tensor.Range // the deferred fetches' regions
	for _, f := range a.Fetch {
		if batchable && f.Src.Kind == core.FromDevice {
			if _, ok := tr.Stores[f.Src.Device].(store.BatchQuerier); ok {
				target, local := fetchRegions(&ranges, a, f)
				later = append(later, batchFetch{
					src: f.Src.Device,
					p:   p,
					entry: store.BatchEntry{
						Path: ModelPath(tr.Job, f.Src.Device, a.Tensor),
						Reg:  local,
						Dst:  out,
						At:   target,
					},
					bytes: f.Want.NumBytes(meta.DType),
				})
				continue
			}
		}
		fs, err := tr.fetchInto(ctx, a, f, meta.DType, out)
		if err != nil {
			return nil, err
		}
		p.st.merge(fs)
	}
	if len(later) > 0 {
		return later, nil
	}
	return nil, tr.uploadStaged(ctx, p)
}

// uploadStaged hands p's finished destination buffer to its store.
func (tr *Transformer) uploadStaged(ctx context.Context, p *prep) error {
	dst := tr.Stores[p.a.Device]
	if err := store.WithContext(dst).UploadContext(ctx, stagingPath(tr.Job, p.a.Device, p.a.Tensor), p.out); err != nil {
		return fmt.Errorf("transform: stage %s on dev %d: %w", p.a.Tensor, p.a.Device, err)
	}
	if uploadCopies(dst) {
		p.st.BytesCopied += int64(p.out.NumBytes())
	}
	p.out = nil
	p.staged = true
	return nil
}

// recordSpan records one datapath span for an assignment that reached
// its outcome — staged, or failed with its own error — when the tracer
// is deep, running from the assignment's start to now (for a deferred
// assignment that includes the shared batch wait). Assignments abandoned
// by cancellation get no span, as their errors are dropped: which
// operations a doomed attempt reached is scheduling, not outcome.
func (tr *Transformer) recordSpan(ctx context.Context, p *prep) {
	if !tr.Obs.Deep() {
		return
	}
	if p.err != nil && ctx.Err() != nil && errors.Is(p.err, ctx.Err()) {
		return
	}
	if p.err == nil && !p.staged {
		return
	}
	attrs := map[string]any{
		"tensor": string(p.a.Tensor),
		"device": int(p.a.Device),
	}
	if p.a.IsNoop() {
		attrs["noop"] = true
	}
	if b := p.st.PlanBytes(); b > 0 {
		attrs["bytes"] = b
	}
	if p.st.AllocBytes > 0 {
		attrs["alloc_bytes"] = p.st.AllocBytes
	}
	if p.err != nil {
		attrs["err"] = p.err.Error()
	}
	tr.Obs.Record(obs.SpanAssignment, obs.CatDatapath, time.Since(p.start).Nanoseconds(), attrs)
}

// fetchRegions computes a fetch's destination region inside the
// assignment's buffer and, for a device source, its source-local region
// inside the stored sub-tensor (Want translated by the respective
// origins). Both are appended to *arena and cut from it: a caller with
// many fetches hands every call the same arena and pays one growing
// allocation between them (regions cut earlier stay good when it grows).
func fetchRegions(arena *[]tensor.Range, a core.Assignment, f core.Fetch) (target, local tensor.Region) {
	rank, start := len(f.Want), len(*arena)
	*arena = slices.Grow(*arena, 2*rank)
	for i, w := range f.Want {
		*arena = append(*arena, tensor.Range{Lo: w.Lo - a.Region[i].Lo, Hi: w.Hi - a.Region[i].Lo})
	}
	if f.Src.Kind == core.FromDevice {
		for i, w := range f.Want {
			*arena = append(*arena, tensor.Range{Lo: w.Lo - f.Src.Region[i].Lo, Hi: w.Hi - f.Src.Region[i].Lo})
		}
		local = (*arena)[start+rank : start+2*rank : start+2*rank]
	}
	return (*arena)[start : start+rank : start+rank], local
}

// regionLess orders regions by their bounds, dimension-major.
func regionLess(a, b tensor.Region) bool {
	for k := range a {
		if k >= len(b) {
			return false
		}
		if a[k].Lo != b[k].Lo {
			return a[k].Lo < b[k].Lo
		}
		if a[k].Hi != b[k].Hi {
			return a[k].Hi < b[k].Hi
		}
	}
	return len(a) < len(b)
}

// runBounded runs fn(0..n-1) on up to par goroutines, the caller's among
// them. Each takes the next index off one atomic cursor, so an index
// costs no hand-off, and no index starts once ctx is canceled.
func runBounded(ctx context.Context, par, n int, fn func(int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
