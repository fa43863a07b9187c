package core

import (
	"slices"
	"sort"
	"sync/atomic"

	"tenplex/internal/cluster"
	"tenplex/internal/tensor"
)

// This file implements the compiled form of a PTC: every holder of
// every tensor, grouped by tensor in shared arenas and organized for
// the lookups the metadata layers need — all holders of one tensor
// (Slices, checkpointing), holders on one device (the planner's tier 0,
// the one-region-per-tensor check), holders on one worker (tier 1), and
// holders overlapping an interval along the tensor's dominant split
// axis (tier 2, AlignDevices, Holders).
//
// A PTC is compiled at most once, on first use (PTC.index), and the
// result is immutable and shared by everything that reads the PTC
// afterwards: AlignDevices and every GeneratePlan against one source
// PTC — all candidates the coordinator prices before committing one —
// use the same index. AddTensor, Assign and AssignAll, the only
// mutators, drop it. Holder regions alias the PTC's own (placed regions
// are never mutated), so compiling copies no region.

// srcHolder is one placed sub-tensor in the index. lo/hi cache the
// holder's extent along the owning tensorIndex's split axis; rank is
// the device's dense position among the PTC's distinct devices, so
// per-device bookkeeping can use flat arrays regardless of how sparse
// the DeviceID space is.
type srcHolder struct {
	dev    cluster.DeviceID
	rank   int32
	reg    tensor.Region
	lo, hi int
}

// tensorIndex indexes the holders of one tensor. holders is kept in
// canonical order — device ascending, placement order within a device —
// which is exactly the tie-break order of the reference planner's
// stable sort. byLo additionally orders holder positions by their lower
// bound along the dominant split axis for interval lookup. A tensor the
// PTC registers but no device holds (every replica died) has no holders.
type tensorIndex struct {
	id      TensorID
	meta    TensorMeta // zero (an invalid dtype) when the PTC places a tensor it never registered
	holders []srcHolder
	devs    []cluster.DeviceID // ascending; devices holding the tensor
	starts  []int32            // len(devs)+1; holders[starts[i]:starts[i+1]] sit on devs[i]
	axis    int                // dominant split axis; -1 when every holder has the same region
	byLo    []int32
	n       int32 // holder count, used as a fill cursor during the build
}

// ptcIndex is the compiled PTC. All per-tensor slices are windows into
// shared backing arrays sized in a counting pass, so building it costs
// a handful of allocations regardless of tensor count.
type ptcIndex struct {
	pos   map[TensorID]int32
	all   []tensorIndex      // placed tensors in first-placement order, then the unplaced
	devs  []cluster.DeviceID // distinct devices, ascending: the dense rank space
	place [][]int32          // by rank: the position in all of each sub-tensor on the device's list
}

// indexBuilds counts compilations, for the test that pins one build per
// PTC value.
var indexBuilds atomic.Int64

// index returns p's compiled form, building it on first use. Concurrent
// readers of one PTC share a single build.
func (p *PTC) index() *ptcIndex {
	if idx := p.compiled.Load(); idx != nil {
		return idx
	}
	p.compileMu.Lock()
	defer p.compileMu.Unlock()
	if idx := p.compiled.Load(); idx != nil {
		return idx
	}
	idx := compile(p)
	p.compiled.Store(idx)
	return idx
}

// tensor returns the index of one tensor, or nil if the PTC neither
// registers nor places it.
func (idx *ptcIndex) tensor(id TensorID) *tensorIndex {
	p, ok := idx.pos[id]
	if !ok {
		return nil
	}
	return &idx.all[p]
}

// rank returns the dense rank of device d, or -1 if the PTC has no such
// device.
func (idx *ptcIndex) rank(d cluster.DeviceID) int32 {
	i := sort.Search(len(idx.devs), func(i int) bool { return idx.devs[i] >= d })
	if i == len(idx.devs) || idx.devs[i] != d {
		return -1
	}
	return int32(i)
}

// eachList calls position for every sub-tensor of every listed device's
// placement list, with the device it is met on, and returns the results
// list by list. Lists that share storage — BuildPTC places one list on
// all replicas of a rank, AlignDevices and WithoutDevices hand lists on
// as they are — are resolved once, at devs[first[g]], the first device
// holding them: a placed list is immutable, so the same first element
// and length mean the same sub-tensors. This keeps string hashing
// (position is a map probe by TensorID) off the per-placement path.
func eachList(q *PTC, devs []cluster.DeviceID, position func(cluster.DeviceID, *SubTensor) int32) (seqs [][]int32, first []int32) {
	seqs, first = make([][]int32, len(devs)), make([]int32, len(devs))
	memo := make(map[*SubTensor]int32, len(devs))
	for g, d := range devs {
		list := q.Place[d]
		first[g] = int32(g)
		if len(list) == 0 {
			continue
		}
		if f, ok := memo[&list[0]]; ok && len(seqs[f]) == len(list) {
			seqs[g], first[g] = seqs[f], f
			continue
		}
		seq := make([]int32, len(list))
		for i := range list {
			seq[i] = position(d, &list[i])
		}
		memo[&list[0]] = int32(g)
		seqs[g] = seq
	}
	return seqs, first
}

// resolve maps every placement of q, device by device in q.Devices
// order, to the position of its tensor in idx (-1: idx has no such
// tensor), so consumers walking q against idx index arrays instead of
// hashing tensor IDs. first is eachList's: devices sharing a list share
// its row.
func (idx *ptcIndex) resolve(q *PTC) (wants [][]int32, first []int32) {
	return eachList(q, q.Devices, func(_ cluster.DeviceID, s *SubTensor) int32 {
		if p, ok := idx.pos[s.Tensor]; ok {
			return p
		}
		return -1
	})
}

// distinctDevices returns devs ascending, each once: a device listed
// twice still holds its state once.
func distinctDevices(devs []cluster.DeviceID) []cluster.DeviceID {
	out := slices.Clone(devs)
	slices.Sort(out)
	return slices.Compact(out)
}

// compile builds the index of p for the readers that look holders up
// across devices: AlignDevices and GeneratePlan on their source (never
// the target), Slices, Holders, OneRegionPerTensor, Unique.
func compile(p *PTC) *ptcIndex {
	indexBuilds.Add(1)
	devs := distinctDevices(p.Devices)
	idx := &ptcIndex{pos: make(map[TensorID]int32, len(p.Tensors)), devs: devs}
	idx.all = make([]tensorIndex, 0, len(p.Tensors))
	idx.place, _ = eachList(p, devs, func(_ cluster.DeviceID, s *SubTensor) int32 {
		pos, ok := idx.pos[s.Tensor]
		if !ok {
			pos = int32(len(idx.all))
			idx.all = append(idx.all, tensorIndex{id: s.Tensor, meta: p.Tensors[s.Tensor], axis: -1})
			idx.pos[s.Tensor] = pos
		}
		return pos
	})
	for id, meta := range p.Tensors {
		if _, ok := idx.pos[id]; !ok { // registered, but no device holds it (any more)
			idx.pos[id] = int32(len(idx.all))
			idx.all = append(idx.all, tensorIndex{id: id, meta: meta, axis: -1})
		}
	}

	total := 0
	for _, seq := range idx.place {
		total += len(seq)
		for _, pos := range seq {
			idx.all[pos].n++
		}
	}
	holderArena := make([]srcHolder, total)
	off := int32(0)
	for i := range idx.all {
		end := off + idx.all[i].n
		idx.all[i].holders = holderArena[off:off:end]
		off = end
	}
	for r, d := range devs {
		list := p.Place[d]
		for i, pos := range idx.place[r] {
			ti := &idx.all[pos]
			ti.holders = append(ti.holders, srcHolder{dev: d, rank: int32(r), reg: list[i].Region})
		}
	}

	devArena := make([]cluster.DeviceID, 0, total)
	startArena := make([]int32, 0, total+len(idx.all))
	byLoArena := make([]int32, 0, total)
	for i := range idx.all {
		if len(idx.all[i].holders) > 0 {
			idx.all[i].finish(&devArena, &startArena, &byLoArena)
		}
	}
	return idx
}

// finish computes device spans, the dominant split axis, and the
// interval-sorted position list, carving slices out of the shared
// arenas.
func (ti *tensorIndex) finish(devArena *[]cluster.DeviceID, startArena *[]int32, byLoArena *[]int32) {
	ds, ss := len(*devArena), len(*startArena)
	for p := 0; p < len(ti.holders); {
		d := ti.holders[p].dev
		q := p
		for q < len(ti.holders) && ti.holders[q].dev == d {
			q++
		}
		*devArena = append(*devArena, d)
		*startArena = append(*startArena, int32(p))
		p = q
	}
	*startArena = append(*startArena, int32(len(ti.holders)))
	ti.devs = (*devArena)[ds:len(*devArena):len(*devArena)]
	ti.starts = (*startArena)[ss:len(*startArena):len(*startArena)]

	// Dominant split axis: the first dimension along which any two
	// holders differ. Fully replicated tensors keep axis == -1.
	first := ti.holders[0].reg
	for _, h := range ti.holders[1:] {
		if len(h.reg) != len(first) {
			ti.axis = -1
			return // mixed ranks: no usable axis, lookup returns all
		}
		if sameStorage(h.reg, first) {
			continue // a replica placed from the first holder's region
		}
		for d := range first {
			if h.reg[d] != first[d] {
				if ti.axis < 0 || d < ti.axis {
					ti.axis = d
				}
				break
			}
		}
	}
	if ti.axis < 0 {
		return
	}
	for p := range ti.holders {
		h := &ti.holders[p]
		h.lo, h.hi = h.reg[ti.axis].Lo, h.reg[ti.axis].Hi
	}
	bs := len(*byLoArena)
	for p := range ti.holders {
		*byLoArena = append(*byLoArena, int32(p))
	}
	ti.byLo = (*byLoArena)[bs:len(*byLoArena):len(*byLoArena)]
	// Stable insertion sort by lo: holder lists are short and usually
	// already in split order, and ties must keep canonical order.
	for i := 1; i < len(ti.byLo); i++ {
		for j := i; j > 0 && ti.holders[ti.byLo[j]].lo < ti.holders[ti.byLo[j-1]].lo; j-- {
			ti.byLo[j], ti.byLo[j-1] = ti.byLo[j-1], ti.byLo[j]
		}
	}
}

// span returns the canonical-order position range of device d's
// holders.
func (ti *tensorIndex) span(d cluster.DeviceID) (int32, int32, bool) {
	lo, hi := 0, len(ti.devs)
	for lo < hi {
		mid := (lo + hi) / 2
		if ti.devs[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ti.devs) || ti.devs[lo] != d {
		return 0, 0, false
	}
	return ti.starts[lo], ti.starts[lo+1], true
}

// lookup appends to out the positions of every holder whose extent
// along the split axis overlaps [qlo, qhi). The result is a superset
// filter only — callers still intersect full regions — so tensors
// without a split axis simply return all holders.
func (ti *tensorIndex) lookup(qlo, qhi int, out []int32) []int32 {
	if ti.axis < 0 {
		for p := range ti.holders {
			out = append(out, int32(p))
		}
		return out
	}
	// All holders with lo < qhi form a prefix of byLo.
	lo, hi := 0, len(ti.byLo)
	for lo < hi {
		mid := (lo + hi) / 2
		if ti.holders[ti.byLo[mid]].lo < qhi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for _, p := range ti.byLo[:lo] {
		if ti.holders[p].hi > qlo {
			out = append(out, p)
		}
	}
	return out
}

// lookupRegion runs lookup with reg's extent along the split axis.
func (ti *tensorIndex) lookupRegion(reg tensor.Region, out []int32) []int32 {
	if ti.axis < 0 || ti.axis >= len(reg) {
		return ti.lookup(0, 0, out)
	}
	return ti.lookup(reg[ti.axis].Lo, reg[ti.axis].Hi, out)
}

// regionAllocator abstracts where region storage comes from, so the
// planner's region algebra has one implementation serving both the
// plain heap (validation paths) and per-worker arenas (the planning
// hot path).
type regionAllocator interface {
	allocRegion(n int) tensor.Region
}

// heapRegions is the plain-make allocator.
type heapRegions struct{}

func (heapRegions) allocRegion(n int) tensor.Region { return make(tensor.Region, n) }

func cloneRegion(al regionAllocator, r tensor.Region) tensor.Region {
	out := al.allocRegion(len(r))
	copy(out, r)
	return out
}

// sameStorage reports whether a and b are the same region in memory —
// equal without comparing, the common case between replicas, which
// parallelizers place from one region (PTC.AssignAll).
func sameStorage(a, b tensor.Region) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// overlapElems returns how many elements two regions share: the volume
// of their intersection, computed without materializing it.
func overlapElems(a, b tensor.Region) int64 {
	if len(a) != len(b) {
		return 0
	}
	n := int64(1)
	for i := range a {
		lo, hi := max(a[i].Lo, b[i].Lo), min(a[i].Hi, b[i].Hi)
		if lo >= hi {
			return 0
		}
		n *= int64(hi - lo)
	}
	return n
}

// intersectInto is Region.Intersect with an allocation-free miss path.
func intersectInto(a, b tensor.Region, al regionAllocator) (tensor.Region, bool) {
	if !a.Overlaps(b) {
		return nil, false
	}
	out := al.allocRegion(len(a))
	for i := range a {
		out[i], _ = a[i].Intersect(b[i])
	}
	return out, true
}
