package transform

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/obs"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// Staging routes. A plan's assignments reach the staging tree of their
// destination store by one of three routes; which one is decided per
// assignment from what the code can observe about its stores, never by
// a setting (NoBatch aside, which forces the third for everything).
//
//  1. Destination-pull (stageAssembled). The destination store
//     implements store.Assembler and every source of the assignment is
//     a device store with a network address (store.Addressable): the
//     transformer sends the destination ONE /assemble request listing
//     all such assignments, and the store pulls the ranges from its
//     peers itself, copies what it already holds, and links no-op
//     assignments by pointer. No state byte enters this process. This is
//     the route between real tenplex-store daemons.
//  2. Client-side batched (the rest of stageBatched). For assignments
//     route 1 cannot take — a storage-fallback fetch, overlapping
//     targets, a destination or source that is a store.Local or hides
//     the capability behind a wrapper — device fetches are grouped by
//     SOURCE store and issued as one store.BatchQueryInto per source
//     into buffers allocated here, in three passes: per-assignment prep
//     (noop pointer staging, allocation, immediate fetches for anything
//     unbatchable), per-source batches, staging uploads.
//  3. Per-range pooled (stagePooled in transformer.go). No store of the
//     plan is batch-capable, or NoBatch is set: one QueryInto per plan
//     range through a worker pool, then one upload per tensor.
//
// Local stores implement neither BatchQuerier nor Assembler, so
// in-process setups — including the coordinator's deterministic sims
// and their golden obs traces — take route 3 unchanged.

// useBatch reports whether the batched staging path applies: streamed
// pipeline, batching not disabled, and at least one batch-capable
// store. Per-fetch capability is still checked during prep, so mixed
// store sets batch what they can and fall back for the rest.
func (tr *Transformer) useBatch() bool {
	if tr.Pipeline != Streamed || tr.NoBatch {
		return false
	}
	for _, acc := range tr.Stores {
		if _, ok := acc.(store.BatchQuerier); ok {
			return true
		}
	}
	return false
}

// batchPrep is one assignment moving through the batched staging path.
type batchPrep struct {
	a      core.Assignment
	out    *tensor.Tensor // nil when staged by pointer or by the destination store
	st     Stats
	start  time.Time
	err    error
	staged bool
	// pulled marks an assignment handed to its destination store
	// (route 1); the client-side passes skip it.
	pulled bool
}

// assembleGroup is the destination-pull work of one destination device:
// one store.Assemble request.
type assembleGroup struct {
	dev   cluster.DeviceID
	preps []*batchPrep
	items []store.AssembleItem
	// st holds what the store reported having copied and allocated.
	st Stats
}

// batchFetch is one plan range deferred to a per-source batch: entry
// scatter-writes into p's destination buffer, and bytes is attributed
// to p's stats when the batch lands.
type batchFetch struct {
	src   cluster.DeviceID
	p     *batchPrep
	entry store.BatchEntry
	bytes int64
}

// stageBatched stages every assignment of the plan through the batched
// path; the first fatal error cancels the rest. Counter totals match
// the per-assignment path: only fully staged assignments contribute.
func (tr *Transformer) stageBatched(ctx context.Context, cancel context.CancelFunc, plan *core.Plan) (Stats, []error) {
	par := tr.Parallelism
	if par <= 0 {
		par = 8
	}
	preps := make([]batchPrep, len(plan.Assignments))
	var (
		mu       sync.Mutex
		deferred []batchFetch
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

	pulls := tr.assembleGroups(plan, preps)
	runBounded(ctx, par, len(pulls), func(gi int) {
		if err := tr.stageAssembled(ctx, pulls[gi]); err != nil {
			fail(err)
		}
	})

	runBounded(ctx, par, len(plan.Assignments), func(i int) {
		p := &preps[i]
		if p.pulled {
			return
		}
		p.start = time.Now()
		local, err := tr.prepAssignment(ctx, plan, p)
		if err != nil {
			p.err = err
			fail(err)
			return
		}
		if len(local) > 0 {
			mu.Lock()
			deferred = append(deferred, local...)
			mu.Unlock()
		}
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

	runBounded(ctx, par, len(preps), func(i int) {
		p := &preps[i]
		if p.err != nil || p.out == nil {
			return
		}
		dst := tr.Stores[p.a.Device]
		if err := upload(ctx, dst, stagingPath(tr.Job, p.a.Device, p.a.Tensor), p.out); err != nil {
			p.err = fmt.Errorf("transform: stage %s on dev %d: %w", p.a.Tensor, p.a.Device, err)
			fail(p.err)
			return
		}
		if uploadCopies(dst) {
			p.st.BytesCopied += int64(p.out.NumBytes())
		}
		p.staged = true
	})

	var st Stats
	for _, g := range pulls {
		st.merge(g.st)
	}
	for i := range preps {
		p := &preps[i]
		tr.recordBatchSpan(ctx, p)
		if !p.staged {
			continue
		}
		st.Assignments++
		if p.a.IsNoop() {
			st.Noops++
		}
		st.merge(p.st)
	}
	return st, errs
}

// assembleGroups routes the plan's assignments: it fills in every
// prep's assignment and returns, per destination device in plan order,
// the ones the destination store can assemble by itself.
func (tr *Transformer) assembleGroups(plan *core.Plan, preps []batchPrep) []*assembleGroup {
	var groups []*assembleGroup
	byDev := map[cluster.DeviceID]*assembleGroup{}
	for i, a := range plan.Assignments {
		p := &preps[i]
		p.a = a
		item, ok := tr.assembleItem(plan, a)
		if !ok {
			continue
		}
		p.pulled = true
		g := byDev[a.Device]
		if g == nil {
			g = &assembleGroup{dev: a.Device}
			byDev[a.Device] = g
			groups = append(groups, g)
		}
		g.preps = append(g.preps, p)
		g.items = append(g.items, item)
	}
	return groups
}

// assembleItem describes assignment a as a tensor for its destination
// store to build, or reports that the store cannot: it lacks the
// capability, a range comes from checkpoint storage or from a store
// without a network address, or targets overlap (ranges from different
// sources land concurrently on the store as they do here).
func (tr *Transformer) assembleItem(plan *core.Plan, a core.Assignment) (store.AssembleItem, bool) {
	self, ok := tr.Stores[a.Device].(interface {
		store.Assembler
		store.Addressable
	})
	if !ok {
		return store.AssembleItem{}, false
	}
	item := store.AssembleItem{
		Path:  stagingPath(tr.Job, a.Device, a.Tensor),
		DType: plan.To.Tensors[a.Tensor].DType,
		Shape: a.Region.Shape(),
	}
	if a.IsNoop() {
		item.Link = ModelPath(tr.Job, a.Device, a.Tensor)
		return item, true
	}
	if !disjointTargets(a.Fetch) {
		return item, false
	}
	item.Fetch = make([]store.AssembleFetch, len(a.Fetch))
	for i, f := range a.Fetch {
		if f.Src.Kind != core.FromDevice {
			return item, false
		}
		src, ok := tr.Stores[f.Src.Device].(store.Addressable)
		if !ok {
			return item, false
		}
		target, local := fetchRegions(a, f)
		af := store.AssembleFetch{Path: ModelPath(tr.Job, f.Src.Device, a.Tensor), Reg: local, At: target}
		if addr := src.Address(); addr != self.Address() {
			af.Source = addr
		}
		item.Fetch[i] = af
	}
	return item, true
}

// stageAssembled sends one destination store its assemble request and
// books the outcome. Plan bytes are attributed per assignment from the
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
		err = fmt.Errorf("transform: assemble on dev %d: %w", g.dev, err)
		for _, p := range g.preps {
			p.err = err
		}
		return err
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

// prepAssignment stages a noop by pointer or allocates the destination
// and routes every plan range: ranges read from batch-capable device
// stores with pairwise-disjoint targets are returned for the batch
// phase, everything else fetches immediately.
func (tr *Transformer) prepAssignment(ctx context.Context, plan *core.Plan, p *batchPrep) ([]batchFetch, error) {
	a := p.a
	meta := plan.To.Tensors[a.Tensor]
	dst := tr.Stores[a.Device]

	if a.IsNoop() && !uploadCopies(dst) {
		if t, err := dst.Query(ModelPath(tr.Job, a.Device, a.Tensor), nil); err == nil {
			if err := upload(ctx, dst, stagingPath(tr.Job, a.Device, a.Tensor), t); err != nil {
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
	var deferred []batchFetch
	for _, f := range a.Fetch {
		if batchable && f.Src.Kind == core.FromDevice {
			if src, ok := tr.Stores[f.Src.Device]; ok {
				if _, ok := src.(store.BatchQuerier); ok {
					target, local := fetchRegions(a, f)
					deferred = append(deferred, batchFetch{
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
		}
		fs, err := tr.fetchInto(ctx, a, f, meta.DType, out)
		p.st.merge(fs)
		if err != nil {
			return nil, err
		}
	}
	return deferred, nil
}

// recordBatchSpan mirrors applyAssignment's per-assignment datapath
// span for the batched path. The recorded duration runs from prep start
// to staging end and so includes the shared batch wait; spans for
// assignments abandoned by cancellation are suppressed along with their
// errors, exactly as on the per-assignment path.
func (tr *Transformer) recordBatchSpan(ctx context.Context, p *batchPrep) {
	if !tr.Obs.Deep() {
		return
	}
	if p.err != nil && ctx.Err() != nil && errors.Is(p.err, ctx.Err()) {
		return
	}
	if p.err == nil && !p.staged {
		return // abandoned before staging: scheduling, not outcome
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
// assignment's buffer and its source-local region inside the stored
// sub-tensor (Want translated by the respective origins), mirroring
// fetchInto's arithmetic.
func fetchRegions(a core.Assignment, f core.Fetch) (target, local tensor.Region) {
	rank := len(f.Want)
	regs := make(tensor.Region, 2*rank)
	target, local = regs[:rank:rank], regs[rank:]
	for i := range f.Want {
		target[i] = tensor.Range{Lo: f.Want[i].Lo - a.Region[i].Lo, Hi: f.Want[i].Hi - a.Region[i].Lo}
		local[i] = tensor.Range{Lo: f.Want[i].Lo - f.Src.Region[i].Lo, Hi: f.Want[i].Hi - f.Src.Region[i].Lo}
	}
	return target, local
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

// runBounded runs fn(0..n-1) on up to par goroutines, abandoning the
// remaining indices once ctx is canceled.
func runBounded(ctx context.Context, par, n int, fn func(int)) {
	if n == 0 {
		return
	}
	if par > n {
		par = n
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue
				}
				fn(i)
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
}
