package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tenplex/internal/cluster"
	"tenplex/internal/netsim"
	"tenplex/internal/tensor"
)

// SourceKind discriminates where a fetched range comes from.
type SourceKind int

const (
	// FromDevice fetches the range from another device's Tensor Store
	// (or the local one).
	FromDevice SourceKind = iota
	// FromStorage fetches the range from the persisted checkpoint in
	// remote storage; used when no surviving device holds it.
	FromStorage
)

// Source identifies where a Fetch reads from.
type Source struct {
	Kind   SourceKind
	Device cluster.DeviceID // valid when Kind == FromDevice
	// Region is the source sub-tensor's full extent in base coordinates;
	// the executor translates the fetched range into the source's local
	// coordinates with it.
	Region tensor.Region
}

// Fetch moves one range of a base tensor to a destination device. The
// range is expressed in base coordinates; Want ⊆ Src.Region always
// holds for device sources.
type Fetch struct {
	Want tensor.Region
	Src  Source
}

// Assignment rebuilds one destination sub-tensor from fetches. If all
// fetches are local and cover the region with a single piece identical
// to an existing sub-tensor, the executor recognizes it as a no-op.
type Assignment struct {
	Device cluster.DeviceID
	Tensor TensorID
	Region tensor.Region // destination sub-tensor extent, base coords
	Fetch  []Fetch
}

// Plan is an executable reconfiguration plan: every destination
// sub-tensor and where each of its ranges comes from. Executing every
// assignment transforms the state placed as PTC into the state required
// by PTC′ (Alg. 1's split ∥ move ∥ merge sequence: splits are
// range-reads of source sub-tensors, moves are cross-device fetches,
// merges are the assembly of multi-fetch assignments).
//
// A plan lists what moves. A target device whose placement list is its
// source list keeps all of its state where it is: it is named once in
// Kept instead of with one noop assignment per sub-tensor. Stats counts
// those noops all the same, and AllAssignments spells them out for an
// executor that walks every destination sub-tensor.
type Plan struct {
	From, To    *PTC
	Assignments []Assignment
	// Kept are the target devices, in To.Devices order, that keep their
	// source placement list: each is listed once in To, From places an
	// equal list on it, and Assignments has nothing for it.
	Kept []cluster.DeviceID
	// validated caches a successful Validate. Plans are immutable after
	// generation (mutating Assignments afterwards is unsupported), so
	// executors re-applying or re-checking the same plan (retry after a
	// transient store fault, benchmarks, the coordinator pricing then
	// executing) skip the full invariant sweep. Atomic so concurrent
	// executors sharing one plan stay race-free.
	validated atomic.Bool
}

// PlanOptions tunes plan generation.
type PlanOptions struct {
	// Topo enables locality-aware source selection (prefer same device,
	// then same worker, then least-loaded remote). Optional; without it
	// sources are chosen by device order with load balancing.
	Topo *cluster.Topology
	// StorageFallback permits fetching ranges that no device holds from
	// the persisted checkpoint; required for failure recovery when all
	// replicas of a range died.
	StorageFallback bool
}

// checkPlanMeta verifies that every target tensor exists in the source
// PTC with identical metadata, and names the first one by ID that does
// not.
func checkPlanMeta(from, to *PTC) error {
	var bad []TensorID
	for id, m := range to.Tensors {
		if fm, ok := from.Tensors[id]; !ok || fm.DType != m.DType || !tensor.ShapeEqual(fm.Shape, m.Shape) {
			bad = append(bad, id)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	id := slices.Min(bad)
	if _, ok := from.Tensors[id]; !ok {
		return fmt.Errorf("core: plan: tensor %q exists only in target PTC", id)
	}
	return fmt.Errorf("core: plan: tensor %q metadata differs between PTCs", id)
}

// sendDelta records bytes a tier-1 fetch asks a source device to send,
// keyed by the device's dense source rank; deltas are folded into the
// global send-load counters during the sequential tier-2 pass so
// load-balanced replica choice stays identical to the reference
// planner's.
type sendDelta struct {
	rank  int32
	bytes int64
}

// pendingAssignment is one destination sub-tensor that the parallel
// tier-0/1 phase could not finish on its own: either ranges remain
// uncovered for the sequential tier-2 pass, or tier-1 fetches produced
// send-load deltas the sequential pass must fold in. Assignments fully
// resolved by local holders produce no pending entry at all.
type pendingAssignment struct {
	slot      int32 // index into plan.Assignments
	ti        *tensorIndex
	remaining []tensor.Region
	delta     []sendDelta
}

// planWorker carries per-goroutine scratch and arenas. Fetches and
// deltas accumulate in scratch slices and are committed to arena
// windows per assignment; regions produced by intersection and
// subtraction live in the ranges arena for the plan's lifetime.
type planWorker struct {
	to    *PTC
	idx   *ptcIndex
	wants [][]int32 // idx.resolve(to)
	// workersOf: by source rank and by to.Devices index; nil without a topology
	srcWorker, dstWorker []int
	// sendLoad, when set, takes the bytes a consumed remote holder is
	// asked to send directly (the sequential pass owns the counters);
	// the parallel phase leaves it nil and records deltas instead.
	sendLoad     []int64
	rem, next    []tensor.Region
	fetchScratch []Fetch
	deltaScratch []sendDelta
	fetches      sliceArena[Fetch]
	deltas       sliceArena[sendDelta]
	regions      sliceArena[tensor.Region]
	ranges       sliceArena[tensor.Range]
}

// allocRegion makes planWorker a regionAllocator backed by its arena,
// so the shared region algebra (intersectInto, subtractInto) serves
// the hot path without per-region heap allocations.
func (w *planWorker) allocRegion(n int) tensor.Region {
	return tensor.Region(w.ranges.alloc(n))
}

// consume intersects one holder with every remaining range, emitting
// fetches into the scratch list and shrinking w.rem, exactly as the
// reference planner's inner loop does for that holder. A remaining
// range the holder contains whole — every no-op and every plain move —
// is its own intersection and leaves nothing behind: no region is
// allocated for it.
func (w *planWorker) consume(h *srcHolder, size int64, dst cluster.DeviceID) {
	w.next = w.next[:0]
	for _, rem := range w.rem {
		inter := rem
		whole := h.reg.Contains(rem)
		if !whole {
			var ok bool
			if inter, ok = intersectInto(rem, h.reg, w); !ok {
				w.next = append(w.next, rem)
				continue
			}
		}
		w.fetchScratch = append(w.fetchScratch, Fetch{
			Want: inter,
			Src:  Source{Kind: FromDevice, Device: h.dev, Region: h.reg},
		})
		if h.dev != dst {
			bytes := int64(inter.NumElems()) * size
			if w.sendLoad != nil {
				w.sendLoad[h.rank] += bytes
			} else {
				w.deltaScratch = append(w.deltaScratch, sendDelta{h.rank, bytes})
			}
		}
		if !whole {
			w.next = subtractInto(w.next, rem, inter, w)
		}
	}
	w.rem, w.next = w.next, w.rem
}

// planDevice resolves tier-0 (local) and tier-1 (same-worker) sources
// for every resolved sub-tensor wanted by destination device di (a kept
// device has none), writing
// finished assignments directly into assigns starting at slot base.
// This is the embarrassingly parallel part of plan generation: nothing
// here depends on other destinations, and slot ranges are disjoint
// across workers. The returned pending list covers only assignments
// the sequential pass must touch.
func (w *planWorker) planDevice(di int, assigns []Assignment, base int32) []pendingAssignment {
	d := w.to.Devices[di]
	place := w.to.Place[d]
	var out []pendingAssignment
	for i, pos := range w.wants[di] {
		want := &place[i]
		// The source registers every target tensor (checkPlanMeta), so
		// there is an index entry even when no device holds the tensor.
		ti := &w.idx.all[pos]
		size := int64(ti.meta.DType.Size())
		a := Assignment{Device: d, Tensor: want.Tensor, Region: want.Region}
		w.fetchScratch = w.fetchScratch[:0]
		w.deltaScratch = w.deltaScratch[:0]
		w.rem = append(w.rem[:0], want.Region)
		if start, end, ok := ti.span(d); ok {
			for p := start; p < end && len(w.rem) > 0; p++ {
				w.consume(&ti.holders[p], size, d)
			}
		}
		if w.srcWorker != nil && len(w.rem) > 0 {
			dw := w.dstWorker[di]
			for k, sd := range ti.devs {
				if len(w.rem) == 0 {
					break
				}
				start := ti.starts[k]
				if sd == d || w.srcWorker[ti.holders[start].rank] != dw {
					continue
				}
				for p := start; p < ti.starts[k+1] && len(w.rem) > 0; p++ {
					w.consume(&ti.holders[p], size, d)
				}
			}
		}
		a.Fetch = w.fetches.save(w.fetchScratch)
		sortFetches(a.Fetch)
		slot := base + int32(i)
		assigns[slot] = a
		if len(w.rem) > 0 || len(w.deltaScratch) > 0 {
			if out == nil { // a device that moves state usually moves most of it
				out = make([]pendingAssignment, 0, len(place)-i)
			}
			out = append(out, pendingAssignment{
				slot:      slot,
				ti:        ti,
				remaining: w.regions.save(w.rem),
				delta:     w.deltas.save(w.deltaScratch),
			})
		}
	}
	return out
}

// GeneratePlan computes the minimal reconfiguration plan that turns the
// state described by from into the state described by to. Tensors are
// matched by ID; both PTCs must agree on tensor metadata. For every
// destination sub-tensor, ranges already resident on the destination
// device are never re-sent (minimality), and remaining ranges are
// fetched from the nearest holder.
//
// Planning costs what the change moves: a target device that keeps its
// source list (keptDevices) is neither resolved nor walked and goes into
// Plan.Kept whole; every sub-tensor on it would have been a noop.
//
// Plan generation is pure metadata work and must stay cheap at
// production scale, so the hot path is indexed and parallel: source
// holders come from the source PTC's compiled index (index.go; built
// once per PTC by its first reader, so every plan against one source
// shares it; the target is only walked and never compiled), local and
// same-worker source selection runs concurrently across destination
// devices on a bounded worker pool, and only the send-load-balanced
// remote replica choice runs as a cheap sequential pass — which keeps
// the output byte-identical to the reference planner
// (plan_reference_test.go). Both passes read the topology through one
// worker table per plan. Assignment and fetch regions alias the PTCs'
// placed regions wherever they coincide with them.
func GeneratePlan(from, to *PTC, opts PlanOptions) (*Plan, error) {
	if err := checkPlanMeta(from, to); err != nil {
		return nil, err
	}
	idx := from.index()
	kept := keptDevices(from, to, idx)
	wants, _ := idx.resolve(to, kept)
	srcWorker, dstWorker := workersOf(opts.Topo, idx.devs, to.Devices)

	bases := make([]int32, len(to.Devices)+1)
	for i := range to.Devices {
		bases[i+1] = bases[i] + int32(len(wants[i]))
	}
	nAssign := int(bases[len(to.Devices)])
	assigns := make([]Assignment, nAssign)

	// Parallel tier-0/1 phase across destination devices. Workers write
	// into disjoint slot ranges of assigns; a kept device has none.
	pending := make([][]pendingAssignment, len(to.Devices))
	workers := min(runtime.GOMAXPROCS(0), len(to.Devices)-len(kept))
	if workers <= 1 {
		w := &planWorker{to: to, idx: idx, wants: wants, srcWorker: srcWorker, dstWorker: dstWorker}
		for di := range to.Devices {
			pending[di] = w.planDevice(di, assigns, bases[di])
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := &planWorker{to: to, idx: idx, wants: wants, srcWorker: srcWorker, dstWorker: dstWorker}
				for {
					di := int(cursor.Add(1)) - 1
					if di >= len(to.Devices) {
						return
					}
					pending[di] = w.planDevice(di, assigns, bases[di])
				}
			}()
		}
		wg.Wait()
	}

	// Sequential tier-2 / storage pass, in deterministic assignment
	// order. sendLoad tracks bytes each source device has been asked to
	// send, for balancing among equally-near replicas; it is indexed by
	// the dense source-device rank, so sparse DeviceID spaces cost
	// nothing.
	sendLoad := make([]int64, len(idx.devs))
	w := &planWorker{to: to, idx: idx, srcWorker: srcWorker, dstWorker: dstWorker, sendLoad: sendLoad}
	cands, loads := make([]int32, 0, 64), make([]int64, 0, 64)

	for di, d := range to.Devices {
		for pi := range pending[di] {
			pa := &pending[di][pi]
			a := &assigns[pa.slot]
			if len(pa.remaining) == 0 {
				for _, pd := range pa.delta {
					sendLoad[pd.rank] += pd.bytes
				}
				continue
			}
			ti := pa.ti
			// Remote candidates: holders overlapping the remaining
			// ranges' extent along the split axis, excluding tier-0/1
			// devices already consumed, each with its send load at
			// assignment start — the reference planner's first key.
			qlo, qhi := boundsAlong(ti.axis, pa.remaining)
			cands = ti.lookup(qlo, qhi, cands[:0])
			loads = loads[:0]
			k := 0
			for _, p := range cands {
				h := &ti.holders[p]
				if h.dev == d || (srcWorker != nil && srcWorker[h.rank] == dstWorker[di]) {
					continue
				}
				cands[k] = p
				loads = append(loads, sendLoad[h.rank])
				k++
			}
			cands = cands[:k]
			for _, pd := range pa.delta {
				sendLoad[pd.rank] += pd.bytes
			}
			size := int64(ti.meta.DType.Size())
			w.fetchScratch = append(w.fetchScratch[:0], a.Fetch...)
			w.rem = append(w.rem[:0], pa.remaining...)
			// Consume the least (load, device, placement order) candidate
			// — a canonical position encodes the last two keys — one at a
			// time: the ranges are usually covered long before the last.
			for len(w.rem) > 0 && len(cands) > 0 {
				b := 0
				for i := 1; i < len(cands); i++ {
					if loads[i] < loads[b] || loads[i] == loads[b] && cands[i] < cands[b] {
						b = i
					}
				}
				w.consume(&ti.holders[cands[b]], size, d)
				last := len(cands) - 1
				cands[b], loads[b] = cands[last], loads[last]
				cands, loads = cands[:last], loads[:last]
			}
			if len(w.rem) > 0 {
				if !opts.StorageFallback {
					return nil, fmt.Errorf(
						"core: plan: range %v of %q unavailable on any device (enable StorageFallback to recover from checkpoints)",
						w.rem[0], a.Tensor)
				}
				shape := ti.meta.Shape
				full := tensor.Region(w.ranges.alloc(len(shape)))
				for i, n := range shape {
					full[i] = tensor.Range{Lo: 0, Hi: n}
				}
				for _, rem := range w.rem {
					w.fetchScratch = append(w.fetchScratch, Fetch{
						Want: rem,
						Src:  Source{Kind: FromStorage, Region: full},
					})
				}
			}
			a.Fetch = w.fetches.save(w.fetchScratch)
			// Deterministic fetch order: by region, device sources first.
			sortFetches(a.Fetch)
		}
	}
	return &Plan{From: from, To: to, Assignments: assigns, Kept: kept}, nil
}

// keptDevices lists, in to.Devices order, the target devices whose
// every sub-tensor would be planned as a noop: those with a placement
// list equal to the source's — the same backing array, or the same
// tensors and regions in the same order — that hold no tensor twice in
// from (the planner would read a second holder's range first). A target
// listing any device twice keeps none.
func keptDevices(from, to *PTC, idx *ptcIndex) []cluster.DeviceID {
	var kept []cluster.DeviceID
	for _, d := range to.Devices {
		r := idx.rank(d)
		if r < 0 || idx.repeats[r] || len(to.Place[d]) == 0 || !sameList(to.Place[d], from.Place[d]) {
			continue
		}
		if kept == nil {
			if _, twice := cluster.Allocation(to.Devices).Repeated(); twice {
				return nil
			}
			kept = make([]cluster.DeviceID, 0, len(to.Devices))
		}
		kept = append(kept, d)
	}
	return kept
}

// sameList reports whether two placement lists hold the same tensors
// and regions in the same order.
func sameList(a, b []SubTensor) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i].Tensor != b[i].Tensor || !a[i].Region.Equal(b[i].Region) {
			return false
		}
	}
	return true
}

// AllAssignments returns every assignment the plan stands for, in the
// order GeneratePlan walks the target: device by device in To.Devices
// order, a kept device's sub-tensors as the noops they are (each
// fetching its own source region whole). Without kept devices it is
// Assignments itself; otherwise it allocates the list and one fetch per
// kept sub-tensor, all from one slice.
func (p *Plan) AllAssignments() []Assignment {
	if len(p.Kept) == 0 {
		return p.Assignments
	}
	n, nKept := len(p.Assignments), 0
	for _, d := range p.Kept {
		nKept += len(p.To.Place[d])
	}
	out := make([]Assignment, 0, n+nKept)
	fetches := make([]Fetch, nKept)
	rest, k := p.Assignments, 0
	for _, d := range p.To.Devices {
		list := p.To.Place[d]
		if k < len(p.Kept) && p.Kept[k] == d {
			k++
			src := p.From.Place[d]
			for i, s := range list {
				f := fetches[:1:1]
				fetches = fetches[1:]
				f[0] = Fetch{Want: s.Region, Src: Source{Kind: FromDevice, Device: d, Region: src[i].Region}}
				out = append(out, Assignment{Device: d, Tensor: s.Tensor, Region: s.Region, Fetch: f})
			}
			continue
		}
		m := min(len(list), len(rest))
		out, rest = append(out, rest[:m]...), rest[m:]
	}
	return append(out, rest...)
}

// workersOf returns the worker hosting each of src and of dst, or nils
// without a topology: source selection compares these instead of asking
// the topology once per holder.
func workersOf(topo *cluster.Topology, src, dst []cluster.DeviceID) ([]int, []int) {
	if topo == nil {
		return nil, nil
	}
	out := make([]int, 0, len(src)+len(dst))
	for _, devs := range [2][]cluster.DeviceID{src, dst} {
		for _, d := range devs {
			out = append(out, topo.WorkerOf(d))
		}
	}
	return out[:len(src)], out[len(src):]
}

// boundsAlong returns the extent of regs along axis; regs is non-empty.
func boundsAlong(axis int, regs []tensor.Region) (int, int) {
	if axis < 0 || axis >= len(regs[0]) {
		return 0, 0
	}
	lo, hi := regs[0][axis].Lo, regs[0][axis].Hi
	for _, r := range regs[1:] {
		if r[axis].Lo < lo {
			lo = r[axis].Lo
		}
		if r[axis].Hi > hi {
			hi = r[axis].Hi
		}
	}
	return lo, hi
}

// sortFetches stable-sorts fetches by wanted region. Fetch lists are
// small; insertion sort is stable and allocation-free.
func sortFetches(fs []Fetch) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && regionLess(fs[j].Want, fs[j-1].Want); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// IsNoop reports whether the assignment requires no work: a single local
// fetch whose source region equals the wanted region.
func (a Assignment) IsNoop() bool {
	return len(a.Fetch) == 1 &&
		a.Fetch[0].Src.Kind == FromDevice &&
		a.Fetch[0].Src.Device == a.Device &&
		a.Fetch[0].Src.Region.Equal(a.Region) &&
		a.Fetch[0].Want.Equal(a.Region)
}

// Stats aggregates what a plan will do.
type Stats struct {
	Assignments int
	Noops       int
	Fetches     int
	Splits      int // fetches that read a strict sub-range of the source
	Merges      int // assignments assembled from more than one fetch

	LocalBytes       int64 // same-device fetches
	IntraWorkerBytes int64 // cross-device, same-worker (needs Topo)
	CrossWorkerBytes int64 // cross-worker
	StorageBytes     int64 // checkpoint fallback reads
	MovedBytes       int64 // everything leaving its device (incl. storage)
}

// Stats computes plan statistics; topo may be nil (intra-worker bytes
// then count as cross-worker).
func (p *Plan) Stats(topo *cluster.Topology) Stats {
	var st Stats
	for _, d := range p.Kept {
		st.Assignments += len(p.To.Place[d])
		st.Noops += len(p.To.Place[d])
	}
	for _, a := range p.Assignments {
		st.Assignments++
		if a.IsNoop() {
			st.Noops++
			continue
		}
		meta := p.To.Tensors[a.Tensor]
		if len(a.Fetch) > 1 {
			st.Merges++
		}
		for _, f := range a.Fetch {
			st.Fetches++
			bytes := f.Want.NumBytes(meta.DType)
			if f.Src.Kind == FromStorage {
				st.StorageBytes += bytes
				st.MovedBytes += bytes
				continue
			}
			if !f.Src.Region.Equal(f.Want) {
				st.Splits++
			}
			switch {
			case f.Src.Device == a.Device:
				st.LocalBytes += bytes
			case topo != nil && topo.SameWorker(f.Src.Device, a.Device):
				st.IntraWorkerBytes += bytes
				st.MovedBytes += bytes
			default:
				st.CrossWorkerBytes += bytes
				st.MovedBytes += bytes
			}
		}
	}
	return st
}

// Flows converts the plan into netsim flows for the performance plane:
// one flow per (From, To) endpoint pair, carrying the bytes of every
// fetch between them, in the order each pair first occurs in the plan.
// Split work (reading a strict sub-range out of a stored sub-tensor) and
// merge work (assembling a destination from multiple pieces) are
// accounted as host-memory copy bytes. netsim's loads are integer sums,
// so one flow per pair prices exactly what one flow per fetch would; the
// first-occurrence order keeps which pair first reaches a worker's
// interconnect, which is the pair whose bandwidth Simulate prices it at.
// Kept devices move nothing and add no flow.
func (p *Plan) Flows(topo *cluster.Topology) []netsim.Flow {
	// at finds a pair's flow by its key: the destination device in the
	// high half, the source device — all ones for storage — in the low.
	// Most destinations read from one or two sources.
	flows := make([]netsim.Flow, 0, 2*len(p.To.Devices))
	at := make(map[uint64]int, 2*len(p.To.Devices))
	last, li := uint64(0), -1
	for _, a := range p.Assignments {
		if a.IsNoop() {
			continue
		}
		meta := p.To.Tensors[a.Tensor]
		merge := len(a.Fetch) > 1
		for _, f := range a.Fetch {
			n := f.Want.NumBytes(meta.DType)
			from, src, bytes, cp := netsim.StorageEP(), uint32(1<<32-1), n, int64(0)
			if f.Src.Kind == FromDevice {
				from, src = netsim.DevEP(f.Src.Device), uint32(f.Src.Device)
				if f.Src.Device == a.Device {
					bytes = 0 // local range reads do not cross a link
				}
				if !f.Src.Region.Equal(f.Want) {
					cp += n // split copy at the source
				}
			}
			if merge {
				cp += n // merge copy at the destination
			}
			if k := uint64(a.Device)<<32 | uint64(src); li < 0 || k != last {
				i, ok := at[k]
				if !ok {
					i = len(flows)
					at[k] = i
					flows = append(flows, netsim.Flow{From: from, To: netsim.DevEP(a.Device)})
				}
				last, li = k, i
			}
			flows[li].Bytes += bytes
			flows[li].CopyBytes += cp
		}
	}
	return flows
}

// Validate checks plan invariants: every assignment's fetches tile its
// region exactly, with no gaps and no overlaps (so every byte of a
// destination buffer has one writer, whatever order its fetches land
// in), every device fetch stays inside its declared source region, and
// the assignments and kept devices together are exactly the target
// PTC's sub-tensors, each once. A kept device must be listed once in
// the target, in Kept in target order, hold an equal list in the
// source, and have no assignment.
//
// Assignments are matched against the target's placement lists with one
// cursor per destination device: a plan in the order GeneratePlan emits
// (device by device, placement order) matches every assignment at its
// device's cursor; any other order is accepted too, by scanning that
// device's outstanding sub-tensors.
func (p *Plan) Validate() error {
	if p.validated.Load() {
		return nil
	}
	// need[base[g]+i] is how many assignments sub-tensor i of device
	// To.Devices[g] is still owed: one, or one per time the device is
	// listed. cursor[g] is the first sub-tensor still owed any.
	devs := p.To.Devices
	slot := make(map[cluster.DeviceID]int, len(devs))
	base := make([]int, len(devs)+1)
	k := 0 // walks p.Kept; a kept device owes no assignment
	for g, d := range devs {
		base[g+1] = base[g]
		isKept := k < len(p.Kept) && p.Kept[k] == d
		if _, dup := slot[d]; dup {
			if isKept || slices.Contains(p.Kept[:k], d) {
				return fmt.Errorf("core: plan: kept device %d listed twice in target", d)
			}
			continue
		}
		slot[d] = g
		if !isKept {
			base[g+1] += len(p.To.Place[d])
			continue
		}
		if !sameList(p.To.Place[d], p.From.Place[d]) {
			return fmt.Errorf("core: plan: kept device %d holds a different list in the source", d)
		}
		k++
	}
	if k < len(p.Kept) {
		if _, in := slot[p.Kept[k]]; in {
			return fmt.Errorf("core: plan: kept device %d out of target order", p.Kept[k])
		}
		return fmt.Errorf("core: plan: kept device %d not in target", p.Kept[k])
	}
	need := make([]int32, base[len(devs)])
	for _, d := range devs {
		g := slot[d]
		for i := base[g]; i < base[g+1]; i++ {
			need[i]++
		}
	}
	cursor := make([]int, len(devs))
	last, lastDev := -1, cluster.DeviceID(0)

	regs, elems := make([]tensor.Region, 0, 16), 0
	for _, a := range p.Assignments {
		g := last
		if g < 0 || a.Device != lastDev {
			var ok bool
			if g, ok = slot[a.Device]; !ok {
				return p.notInTarget(a)
			}
			last, lastDev = g, a.Device
		}
		// A kept device owes nothing, so its assignment is never found.
		place, owed := p.To.Place[a.Device], need[base[g]:base[g+1]]
		found := -1
		for i := cursor[g]; i < len(owed); i++ {
			if owed[i] > 0 && place[i].Tensor == a.Tensor && place[i].Region.Equal(a.Region) {
				found = i
				break
			}
		}
		if found < 0 {
			return p.notInTarget(a)
		}
		owed[found]--
		for cursor[g] < len(owed) && owed[cursor[g]] == 0 {
			cursor[g]++
		}

		regs, elems = regs[:0], 0
		for _, f := range a.Fetch {
			if !a.Region.Contains(f.Want) {
				return fmt.Errorf("core: plan: fetch %v outside assignment %v of %q", f.Want, a.Region, a.Tensor)
			}
			if f.Src.Kind == FromDevice && !f.Src.Region.Contains(f.Want) {
				return fmt.Errorf("core: plan: fetch %v outside source region %v of %q", f.Want, f.Src.Region, a.Tensor)
			}
			regs = append(regs, f.Want)
			elems += f.Want.NumElems()
		}
		if !covers(a.Region, regs) {
			return fmt.Errorf("core: plan: fetches do not cover %v of %q on dev %d", a.Region, a.Tensor, a.Device)
		}
		// Contained and covering, the fetches are disjoint exactly when
		// their sizes add up to the region's.
		if elems != a.Region.NumElems() {
			return fmt.Errorf("core: plan: fetches of %v of %q on dev %d overlap", a.Region, a.Tensor, a.Device)
		}
	}
	for g, d := range devs {
		if c := cursor[g]; slot[d] == g && c < base[g+1]-base[g] {
			s := p.To.Place[d][c]
			return fmt.Errorf("core: plan: target sub-tensor %q on dev %d has no assignment",
				string(s.Tensor)+s.Region.String(), d)
		}
	}
	p.validated.Store(true)
	return nil
}

func (p *Plan) notInTarget(a Assignment) error {
	if slices.Contains(p.Kept, a.Device) {
		return fmt.Errorf("core: plan: assignment %q on kept dev %d",
			string(a.Tensor)+a.Region.String(), a.Device)
	}
	return fmt.Errorf("core: plan: assignment %q on dev %d not in target PTC",
		string(a.Tensor)+a.Region.String(), a.Device)
}
