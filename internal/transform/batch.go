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

// An apply is one program and one executor loop. The program
// (newProgram) reads the plan and what the stores can do and touches no
// store: for every destination device, in the target's device order, it
// lists the items that device's store assembles itself and the
// assignments this process builds for it, then which destinations
// commit and which devices depart. The executor (stage, then commit)
// gives each destination one worker, which stages all of its items and
// nothing else, so no two workers ever write one buffer or one store's
// staging tree. An item is served one of two ways, decided per
// assignment from what the code can observe about the stores involved,
// never by a setting:
//
//  1. Destination-pull. The destination store implements
//     store.Assembler and every source of the assignment is a device
//     store with a network address (store.Addressable): the assignment
//     is one item of the destination's single /assemble request, and the
//     store pulls the ranges from its peers itself, copies what it
//     already holds, and links no-op assignments by pointer. No state
//     byte enters this process. This is what happens between real
//     tenplex-store daemons.
//  2. Built here. Anything else — a store.Local destination or source, a
//     checkpoint range, a wrapper that hides the capability — is
//     allocated in this process and every range fetched into its final
//     offset: the ranges a batch-capable store (store.BatchQuerier)
//     holds in one BatchQueryInto per source for the destination, the
//     rest one QueryInto (or storage read) each. Then the buffer is
//     uploaded. A no-op against a store that keeps uploads by reference
//     moves the existing tensor by pointer instead.
//
// With no batch-capable or assembling store in the plan — in-process
// setups, including the coordinator's deterministic sims and their
// golden obs traces — every item is built here, one after the other in
// plan order on its destination's worker.

// program is an apply with every routing decision taken.
type program struct {
	plan  *core.Plan
	dests []destination
	// commit lists the destinations with at least one item: each renames
	// its staged tree over the live one. departing is From \ To: the
	// devices that drop the job's state once every commit is in.
	commit, departing []cluster.DeviceID
}

// destination is what one destination device stages.
type destination struct {
	dev cluster.DeviceID
	// pull are the assignments the device's store assembles itself, in
	// plan order, and items their /assemble request, one each.
	pull  []core.Assignment
	items []store.AssembleItem
	// build are the assignments this process builds, in plan order.
	build []core.Assignment
}

// newProgram routes every assignment of a validated plan to its
// destination, a kept device's noops included, so that an apply issues
// the same store operations whether or not the plan lists them. It is
// the only walk over the plan's assignments in an apply.
func newProgram(job string, plan *core.Plan, stores map[cluster.DeviceID]store.Access) *program {
	p := &program{plan: plan, dests: make([]destination, 0, len(plan.To.Devices))}
	at := make(map[cluster.DeviceID]int, len(plan.To.Devices))
	for _, d := range plan.To.Devices {
		if _, dup := at[d]; !dup {
			at[d] = len(p.dests)
			p.dests = append(p.dests, destination{dev: d})
		}
	}
	all := plan.AllAssignments()
	route := newPullRoute(job, plan, all)
	for _, a := range all {
		d := &p.dests[at[a.Device]]
		if item, ok := assembleItem(stores, a, route); ok {
			d.pull = append(d.pull, a)
			d.items = append(d.items, item)
		} else {
			d.build = append(d.build, a)
		}
	}
	for _, d := range p.dests {
		if len(d.pull)+len(d.build) > 0 {
			p.commit = append(p.commit, d.dev)
		}
	}
	for _, d := range plan.From.Devices {
		if _, in := at[d]; !in {
			p.departing = append(p.departing, d)
		}
	}
	return p
}

// stage runs the program's destinations on up to Parallelism workers,
// one destination per worker, each staging its items into its store's
// staging tree. The first fatal error cancels the rest: queued
// destinations are abandoned and in-flight operations through
// context-aware stores are interrupted. Only staged assignments
// contribute to the returned Stats; the error joins every destination's
// failure, sorted by message.
func (tr *Transformer) stage(ctx context.Context, prog *program) (Stats, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sts := make([]Stats, len(prog.dests))
	errs := make([]error, len(prog.dests))
	runBounded(ctx, tr.parallelism(), len(prog.dests), func(i int) {
		err := tr.stageDestination(ctx, prog.plan, &prog.dests[i], &sts[i])
		if err == nil {
			return
		}
		if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
			errs[i] = err
		}
		cancel()
	})
	var st Stats
	for _, s := range sts {
		st.merge(s)
	}
	errs = slices.DeleteFunc(errs, func(err error) bool { return err == nil })
	if len(errs) == 0 && ctx.Err() != nil {
		errs = append(errs, ctx.Err())
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
		return st, fmt.Errorf("transform: %d assignments failed: %w", len(errs), errors.Join(errs...))
	}
	return st, nil
}

// stageDestination stages one destination: its store's assemble
// request, then the items built here. st counts what was staged.
func (tr *Transformer) stageDestination(ctx context.Context, plan *core.Plan, d *destination, st *Stats) error {
	if len(d.items) > 0 {
		if err := tr.assemble(ctx, d, st); err != nil {
			return err
		}
	}
	return tr.build(ctx, plan, d, st)
}

// assemble sends the destination store its assemble request and books
// the outcome; an error is the outcome of every pulled assignment. Plan
// bytes are attributed per assignment from the plan, as for built
// items; bytes copied and allocated are the store's own count, and the
// request fails unless the store accounts for exactly the bytes the plan
// asked of it.
func (tr *Transformer) assemble(ctx context.Context, d *destination, st *Stats) error {
	start := time.Now()
	as, err := tr.Stores[d.dev].(store.Assembler).Assemble(ctx, d.items)
	var pulled Stats
	for i, a := range d.pull {
		pulled.add(a, pulledStats(a, d.items[i].DType))
	}
	if err != nil {
		err = fmt.Errorf("transform: assemble on dev %d: %w", d.dev, err)
	} else if got, want := as.BytesCopied+as.LinkedBytes, pulled.PlanBytes(); got != want {
		err = fmt.Errorf("transform: assemble on dev %d: store accounts for %d bytes, plan asked for %d", d.dev, got, want)
	}
	for i, a := range d.pull {
		tr.recordSpan(ctx, a, pulledStats(a, d.items[i].DType), start, err)
	}
	if err != nil {
		return err
	}
	pulled.BytesCopied, pulled.AllocBytes = as.BytesCopied, as.AllocBytes
	st.merge(pulled)
	return nil
}

// pulledStats is where the plan bytes of a pulled assignment come from.
func pulledStats(a core.Assignment, dt tensor.DType) (st Stats) {
	for _, f := range a.Fetch {
		st.fetched(a, f.Src.Device, f.Want.NumBytes(dt))
	}
	return st
}

// built is one assignment being built here: its destination buffer,
// while it has one, and what it has cost so far.
type built struct {
	out *tensor.Tensor
	st  Stats
}

// build stages the assignments this process builds for one destination.
// The ranges that batch-capable stores hold come first, in one
// BatchQueryInto per source, in the order the items first use them,
// into buffers allocated for them; then each item, in plan order, is
// finished and uploaded. Every buffer is allocated once.
func (tr *Transformer) build(ctx context.Context, plan *core.Plan, d *destination, st *Stats) error {
	items := make([]built, len(d.build))
	var ranges []tensor.Range // every fetch's regions, cut from one arena
	type batch struct {
		src     cluster.DeviceID
		bq      store.BatchQuerier
		entries []store.BatchEntry
	}
	var batches []batch
	link := !uploadCopies(tr.Stores[d.dev]) // a no-op moves by pointer
	for i, a := range d.build {
		if link && a.IsNoop() {
			continue
		}
		b := &items[i]
		dt := plan.To.Tensors[a.Tensor].DType
		for _, f := range a.Fetch {
			bq := tr.batchSource(f)
			if bq == nil {
				continue
			}
			if b.out == nil {
				b.alloc(a, dt)
			}
			k := slices.IndexFunc(batches, func(b batch) bool { return b.src == f.Src.Device })
			if k < 0 {
				k = len(batches)
				batches = append(batches, batch{src: f.Src.Device, bq: bq})
			}
			target, local := fetchRegions(&ranges, a, f)
			batches[k].entries = append(batches[k].entries, store.BatchEntry{
				Path: ModelPath(tr.Job, f.Src.Device, a.Tensor), Reg: local, Dst: b.out, At: target,
			})
			n := f.Want.NumBytes(dt)
			b.st.BytesCopied += n
			b.st.fetched(a, f.Src.Device, n)
		}
	}
	for _, b := range batches {
		if _, err := b.bq.BatchQueryInto(ctx, b.entries); err != nil {
			return fmt.Errorf("transform: batch fetch from dev %d: %w", b.src, err)
		}
	}
	for i, a := range d.build {
		start := time.Now()
		err := tr.buildItem(ctx, plan, a, &items[i], &ranges)
		tr.recordSpan(ctx, a, items[i].st, start, err)
		if err != nil {
			return err
		}
		st.add(a, items[i].st)
	}
	return nil
}

// alloc gives b the destination buffer of assignment a.
func (b *built) alloc(a core.Assignment, dt tensor.DType) {
	b.out = tensor.NewFromRegion(dt, a.Region)
	b.st.AllocBytes += int64(b.out.NumBytes())
}

// buildItem finishes assignment a on its destination and uploads it. An
// item with no batched range either is a no-op against a store that
// keeps uploads by reference, which moves the existing tensor by
// pointer, no bytes copied or allocated, or gets its buffer now; then
// every range its batches did not bring is fetched into the buffer.
func (tr *Transformer) buildItem(ctx context.Context, plan *core.Plan, a core.Assignment, b *built, ranges *[]tensor.Range) error {
	dst := tr.Stores[a.Device]
	dt := plan.To.Tensors[a.Tensor].DType
	batched := b.out != nil
	if !batched && a.IsNoop() && !uploadCopies(dst) {
		if t, err := dst.Query(ModelPath(tr.Job, a.Device, a.Tensor), nil); err == nil {
			if err := store.WithContext(dst).UploadContext(ctx, stagingPath(tr.Job, a.Device, a.Tensor), t); err != nil {
				return fmt.Errorf("transform: stage %s on dev %d: %w", a.Tensor, a.Device, err)
			}
			b.st.LocalBytes += a.Region.NumBytes(dt)
			return nil
		}
		// The sub-tensor is unexpectedly absent: build it like any other
		// item, so that its fetch reports why.
	}
	if !batched {
		b.alloc(a, dt)
	}
	for _, f := range a.Fetch {
		if batched && tr.batchSource(f) != nil {
			continue
		}
		if err := tr.fetchInto(ctx, a, f, dt, b.out, &b.st, ranges); err != nil {
			return err
		}
	}
	if err := store.WithContext(dst).UploadContext(ctx, stagingPath(tr.Job, a.Device, a.Tensor), b.out); err != nil {
		return fmt.Errorf("transform: stage %s on dev %d: %w", a.Tensor, a.Device, err)
	}
	if uploadCopies(dst) {
		b.st.BytesCopied += int64(b.out.NumBytes())
	}
	b.out = nil
	return nil
}

// batchSource is the store that serves fetch f in a batch, or nil when
// f is read on its own.
func (tr *Transformer) batchSource(f core.Fetch) store.BatchQuerier {
	if f.Src.Kind != core.FromDevice {
		return nil
	}
	bq, _ := tr.Stores[f.Src.Device].(store.BatchQuerier)
	return bq
}

// recordSpan records one datapath span for an assignment that reached
// its outcome — staged (err nil), or failed with its own error — when
// the tracer is deep, running from start to now. Assignments abandoned
// by cancellation get no span, as their errors are dropped: which
// operations a doomed attempt reached is scheduling, not outcome.
func (tr *Transformer) recordSpan(ctx context.Context, a core.Assignment, st Stats, start time.Time, err error) {
	if !tr.Obs.Deep() {
		return
	}
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return
	}
	attrs := map[string]any{
		"tensor": string(a.Tensor),
		"device": int(a.Device),
	}
	if a.IsNoop() {
		attrs["noop"] = true
	}
	if b := st.PlanBytes(); b > 0 {
		attrs["bytes"] = b
	}
	if st.AllocBytes > 0 {
		attrs["alloc_bytes"] = st.AllocBytes
	}
	if err != nil {
		attrs["err"] = err.Error()
	}
	tr.Obs.Record(obs.SpanAssignment, obs.CatDatapath, time.Since(start).Nanoseconds(), attrs)
}

// pullRoute is what the assemble items of one apply share, so that
// describing an assignment to its destination store allocates nothing
// per item or fetch: the paths are cut from one string arena, and the
// shapes, fetch lists and regions from one slice each, sized for the
// whole plan.
type pullRoute struct {
	plan           *core.Plan
	all            []core.Assignment // the plan's, AllAssignments
	model, staging string            // the roots ModelPath and stagingPath build under
	paths          tensor.StringArena
	scratch        []byte // the path being built
	dims           []int
	fetches        []store.AssembleFetch
	ranges         []tensor.Range
}

func newPullRoute(job string, plan *core.Plan, all []core.Assignment) *pullRoute {
	return &pullRoute{plan: plan, all: all, model: ModelRoot(job), staging: StagingRoot(job)}
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
	for _, a := range r.all {
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
// capability, or a range comes from checkpoint storage or from a store
// without a network address.
func assembleItem(stores map[cluster.DeviceID]store.Access, a core.Assignment, route *pullRoute) (store.AssembleItem, bool) {
	self, ok := stores[a.Device].(interface {
		store.Assembler
		store.Addressable
	})
	if !ok {
		return store.AssembleItem{}, false
	}
	for _, f := range a.Fetch {
		if _, ok := stores[f.Src.Device].(store.Addressable); !ok || f.Src.Kind != core.FromDevice {
			return store.AssembleItem{}, false
		}
	}
	route.reserve()
	item := store.AssembleItem{
		Path:  route.path(route.staging, a.Device, a.Tensor),
		DType: route.plan.To.Tensors[a.Tensor].DType,
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
		if addr := stores[f.Src.Device].(store.Addressable).Address(); addr != self.Address() {
			af.Source = addr
		}
		route.fetches = append(route.fetches, af)
	}
	item.Fetch = route.fetches[start:len(route.fetches):len(route.fetches)]
	return item, true
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
