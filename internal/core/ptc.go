// Package core implements the paper's primary contribution: the
// parallelizable tensor collection (PTC) and the reconfiguration-plan
// generator (Alg. 1).
//
// A PTC = (T, σ, φ, α) describes the parallelized state of a DL job:
// T is the set of state tensors (model parameters, optimizer moments,
// and — logically — dataset samples); the slicing function σ cuts
// tensors into sub-tensors (tensor/sequence parallelism); the
// partitioning function φ groups sub-tensors into sub-collections (data
// and pipeline parallelism); and the allocation function α assigns
// sub-collections to devices.
//
// This package represents the three functions as data: a PTC stores,
// for every device, the list of sub-tensors (tensor ID + region in base
// coordinates) that the device holds. σ, φ and α are recoverable views
// over that table, and — crucially — two PTCs can be diffed to produce a
// minimal reconfiguration plan (split ∥ move ∥ merge) regardless of
// which parallelism strategies produced them. That generality is what
// lets Tenplex support data, tensor, pipeline, expert and sequence
// parallelism with one mechanism (§4.3).
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tenplex/internal/cluster"
	"tenplex/internal/tensor"
)

// TensorID names a state tensor with its canonical hierarchical path,
// e.g. "block.3/attn/qkv/weight" or "block.3/attn/qkv/weight.opt0".
type TensorID string

// TensorMeta carries the full (unsliced) description of a state tensor.
type TensorMeta struct {
	ID    TensorID
	DType tensor.DType
	Shape []int
}

// NumBytes returns the full tensor's byte size.
func (m TensorMeta) NumBytes() int64 { return tensor.ShapeNumBytes(m.DType, m.Shape) }

// SubTensor is one placed fragment: a region of a base tensor, in base
// coordinates.
type SubTensor struct {
	Tensor TensorID
	Region tensor.Region
}

// NumBytes returns the fragment's byte size given its base tensor meta.
func (s SubTensor) NumBytes(meta TensorMeta) int64 {
	return s.Region.NumBytes(meta.DType)
}

// PTC is the parallelizable tensor collection: the externalized state of
// a DL job under some multi-dimensional parallelization, placed onto a
// set of devices.
//
// A PTC is built with AddTensor and Assign/AssignAll and read-only from
// then on; Tensors and Place are exported for reading. Everything that
// looks holders up across devices (Slices, Holders, AlignDevices and
// GeneratePlan on their source) reads the PTC's compiled form
// (index.go), which is built on first use and dropped by the mutators;
// Validate and a plan's target only walk the placement lists. A PTC
// holds that cache's lock, so it is passed by pointer, never copied.
type PTC struct {
	// Name describes the parallelization, e.g. "gpt3-xl T2 P4 D2".
	Name string
	// Tensors is T: every state tensor's metadata, keyed by ID.
	Tensors map[TensorID]TensorMeta
	// Devices is the job's allocation in rank order (α's codomain).
	Devices []cluster.DeviceID
	// Place maps each device to the sub-tensors it holds — the
	// composition α∘φ∘σ in tabular form. A placed list and its regions
	// are never modified afterwards; devices (and PTCs derived from this
	// one) may share them.
	Place map[cluster.DeviceID][]SubTensor

	compileMu sync.Mutex
	compiled  atomic.Pointer[ptcIndex]
}

// NewPTC returns an empty PTC over the given allocation.
func NewPTC(name string, devices []cluster.DeviceID) *PTC {
	p := &PTC{
		Name:    name,
		Tensors: map[TensorID]TensorMeta{},
		Devices: append([]cluster.DeviceID(nil), devices...),
		Place:   make(map[cluster.DeviceID][]SubTensor, len(devices)),
	}
	for _, d := range devices {
		p.Place[d] = nil
	}
	return p
}

// AddTensor registers a state tensor. It must be called before Assign.
func (p *PTC) AddTensor(meta TensorMeta) {
	if _, dup := p.Tensors[meta.ID]; dup {
		panic(fmt.Sprintf("core: duplicate tensor %q", meta.ID))
	}
	if !meta.DType.Valid() {
		panic(fmt.Sprintf("core: tensor %q has invalid dtype", meta.ID))
	}
	p.Tensors[meta.ID] = meta
	p.compiled.Store(nil)
}

// checkPlaceable panics unless reg is a valid region of registered
// tensor id.
func (p *PTC) checkPlaceable(id TensorID, reg tensor.Region) {
	meta, ok := p.Tensors[id]
	if !ok {
		panic(fmt.Sprintf("core: Assign of unknown tensor %q", id))
	}
	if !reg.Valid(meta.Shape) {
		panic(fmt.Sprintf("core: Assign %q region %v invalid for shape %v", id, reg, meta.Shape))
	}
}

// Assign places a sub-tensor region of id onto device d.
func (p *PTC) Assign(d cluster.DeviceID, id TensorID, reg tensor.Region) {
	p.checkPlaceable(id, reg)
	if _, ok := p.Place[d]; !ok {
		panic(fmt.Sprintf("core: Assign to device %d outside allocation %v", d, p.Devices))
	}
	p.Place[d] = append(p.Place[d], SubTensor{Tensor: id, Region: reg.Clone()})
	p.compiled.Store(nil)
}

// AssignAll places the same sub-tensors, in order, on every device in
// devs — one sub-collection and its replicas, which is how a
// parallelizer produces placements. Each sub-tensor is checked once,
// whatever the number of devices, and devices that held nothing before
// share subs itself: the PTC takes ownership of subs and its regions,
// and the caller must not modify them afterwards (regions may be shared
// between sub-tensors, lists and PTCs for the same reason).
func (p *PTC) AssignAll(devs []cluster.DeviceID, subs []SubTensor) {
	for i := range subs {
		p.checkPlaceable(subs[i].Tensor, subs[i].Region)
	}
	for _, d := range devs {
		have, ok := p.Place[d]
		if !ok {
			panic(fmt.Sprintf("core: Assign to device %d outside allocation %v", d, p.Devices))
		}
		if len(have) == 0 {
			p.Place[d] = shareList(subs)
		} else {
			p.Place[d] = append(shareList(have), subs...)
		}
	}
	p.compiled.Store(nil)
}

// Slices returns σ(t): the distinct regions into which tensor id is
// sliced across all devices, in deterministic order.
func (p *PTC) Slices(id TensorID) []tensor.Region {
	ti := p.index().tensor(id)
	if ti == nil || len(ti.holders) == 0 {
		return nil
	}
	out := make([]tensor.Region, len(ti.holders))
	for i := range ti.holders {
		out[i] = ti.holders[i].reg
	}
	sort.Slice(out, func(i, j int) bool { return regionLess(out[i], out[j]) })
	k := 0
	for i, r := range out {
		if i == 0 || !r.Equal(out[k-1]) {
			out[k] = r
			k++
		}
	}
	return out[:k]
}

// Holders returns the devices, in rank order, that hold a sub-tensor of
// id whose region intersects reg, i.e. the potential sources for that
// range.
func (p *PTC) Holders(id TensorID, reg tensor.Region) []cluster.DeviceID {
	ti := p.index().tensor(id)
	if ti == nil {
		return nil
	}
	var out []cluster.DeviceID
	for _, d := range p.Devices {
		start, end, _ := ti.span(d)
		for k := start; k < end; k++ {
			if ti.holders[k].reg.Overlaps(reg) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// DeviceBytes returns the total state bytes placed on device d.
func (p *PTC) DeviceBytes(d cluster.DeviceID) int64 {
	var n int64
	for _, s := range p.Place[d] {
		n += s.NumBytes(p.Tensors[s.Tensor])
	}
	return n
}

// TotalPlacedBytes sums state bytes over all devices (counting
// replication).
func (p *PTC) TotalPlacedBytes() int64 {
	var n int64
	for _, d := range p.Devices {
		n += p.DeviceBytes(d)
	}
	return n
}

// Validate checks structural invariants: every placed sub-tensor names
// a registered tensor and lies in its bounds, and every registered
// tensor is fully covered by the union of its placed regions (otherwise
// state would be unrecoverable). It builds no index but walks each
// distinct placement list once, devices ascending, so it costs distinct
// sub-tensors, not devices. The error names the first bad tensor in the
// order that walk meets them, then the first unplaced one by ID.
func (p *PTC) Validate() error {
	type check struct {
		meta   TensorMeta
		err    error // the first bad placement
		off, n int32 // regs[off:off+n] are the tensor's placed regions
	}
	ts := make([]check, 0, len(p.Tensors))
	pos := make(map[TensorID]int32, len(p.Tensors))
	devs := distinctDevices(p.Devices)
	seqs, first := eachList(p, devs, func(d cluster.DeviceID, s *SubTensor) int32 {
		t, ok := pos[s.Tensor]
		if !ok {
			t, pos[s.Tensor] = int32(len(ts)), int32(len(ts))
			meta, known := p.Tensors[s.Tensor]
			ts = append(ts, check{meta: meta})
			if !known {
				ts[t].err = fmt.Errorf("core: device %d holds unknown tensor %q", d, s.Tensor)
			}
		}
		c := &ts[t]
		if c.err == nil && !s.Region.Valid(c.meta.Shape) {
			c.err = fmt.Errorf("core: device %d holds %q with invalid region %v (shape %v)",
				d, s.Tensor, s.Region, c.meta.Shape)
		}
		c.n++ // sizes the tensor's window of regs; the fill pass recounts
		return t
	})
	var placed int32
	for t := range ts {
		ts[t].off, placed, ts[t].n = placed, placed+ts[t].n, 0
	}
	regs := make([]tensor.Region, placed)
	for g, seq := range seqs {
		if int(first[g]) != g {
			continue
		}
		list := p.Place[devs[g]]
		for i, t := range seq {
			c := &ts[t]
			regs[c.off+c.n] = list[i].Region
			c.n++
		}
	}
	full := make(tensor.Region, 0, 8)
	for t := range ts {
		c := &ts[t]
		if c.err != nil {
			return c.err
		}
		full = full[:0]
		for _, n := range c.meta.Shape {
			full = append(full, tensor.Range{Lo: 0, Hi: n})
		}
		if !covers(full, regs[c.off:c.off+c.n]) {
			return fmt.Errorf("core: tensor %q not fully covered by placements", c.meta.ID)
		}
	}
	if len(ts) < len(p.Tensors) {
		var unplaced []TensorID
		for id := range p.Tensors {
			if _, ok := pos[id]; !ok {
				unplaced = append(unplaced, id)
			}
		}
		return fmt.Errorf("core: tensor %q has no placement", slices.Min(unplaced))
	}
	return nil
}

// OneRegionPerTensor reports whether every device holds at most one
// sub-tensor of each tensor and, if not, one device and tensor that
// break the rule (the Tensor Store keeps one file per tensor path, so
// executors reject such layouts).
func (p *PTC) OneRegionPerTensor() (cluster.DeviceID, TensorID, bool) {
	idx := p.index()
	for i := range idx.all {
		ti := &idx.all[i]
		if len(ti.holders) == len(ti.devs) {
			continue
		}
		for k := range ti.devs {
			if ti.starts[k+1]-ti.starts[k] > 1 {
				return ti.devs[k], ti.id, false
			}
		}
	}
	return 0, "", true
}

// Unique returns every distinct sub-tensor of the PTC exactly once, at
// the first device in rank order that holds it: out[g] lists, in
// placement order, the sub-tensors of Devices[g] that no earlier device
// (and no earlier entry of its own list) holds. It is what a checkpoint
// writes — replicas once.
func (p *PTC) Unique() [][]SubTensor {
	idx := p.index()
	// seen[off[t]:][:n[t]] are the regions of tensor t listed so far; a
	// tensor has at most as many distinct regions as holders.
	off := make([]int32, len(idx.all)+1)
	for t := range idx.all {
		off[t+1] = off[t] + int32(len(idx.all[t].holders))
	}
	seen := make([]tensor.Region, off[len(idx.all)])
	n := make([]int32, len(idx.all))
	out := make([][]SubTensor, len(p.Devices))
	var uniq []SubTensor
	for g, d := range p.Devices {
		list, start := p.Place[d], len(uniq)
	next:
		for i, t := range idx.place[idx.rank(d)] {
			for _, reg := range seen[off[t] : off[t]+n[t]] {
				if reg.Equal(list[i].Region) {
					continue next
				}
			}
			seen[off[t]+n[t]] = list[i].Region
			n[t]++
			uniq = append(uniq, list[i])
		}
		out[g] = uniq[start:len(uniq):len(uniq)]
	}
	return out
}

// WithoutDevices returns a copy of p restricted to the devices that
// survive, dropping every sub-tensor placed on a removed device. It
// models fail-stop GPU loss (§5.3): the resulting PTC may no longer
// cover every tensor, in which case plan generation falls back to
// persisted checkpoints in remote storage.
func (p *PTC) WithoutDevices(failed ...cluster.DeviceID) *PTC {
	dead := map[cluster.DeviceID]bool{}
	for _, d := range failed {
		dead[d] = true
	}
	var alive []cluster.DeviceID
	for _, d := range p.Devices {
		if !dead[d] {
			alive = append(alive, d)
		}
	}
	out := NewPTC(p.Name+" (degraded)", alive)
	out.Tensors = maps.Clone(p.Tensors)
	for _, d := range alive {
		out.Place[d] = shareList(p.Place[d])
	}
	return out
}

// shareList returns list for placing in another PTC or on another
// device: placed lists are immutable, and with no spare capacity an
// Assign on either side reallocates instead of writing into the other's
// view.
func shareList(list []SubTensor) []SubTensor { return list[:len(list):len(list)] }

// Equal reports whether two PTCs describe the same placement.
func (p *PTC) Equal(q *PTC) bool {
	if len(p.Tensors) != len(q.Tensors) || len(p.Devices) != len(q.Devices) {
		return false
	}
	for i := range p.Devices {
		if p.Devices[i] != q.Devices[i] {
			return false
		}
	}
	for id, m := range p.Tensors {
		qm, ok := q.Tensors[id]
		if !ok || qm.DType != m.DType || !tensor.ShapeEqual(qm.Shape, m.Shape) {
			return false
		}
	}
	for _, d := range p.Devices {
		a, b := p.Place[d], q.Place[d]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Tensor != b[i].Tensor || !a[i].Region.Equal(b[i].Region) {
				return false
			}
		}
	}
	return true
}

// regionLess orders regions lexicographically for deterministic output.
func regionLess(a, b tensor.Region) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].Lo != b[i].Lo {
			return a[i].Lo < b[i].Lo
		}
		if a[i].Hi != b[i].Hi {
			return a[i].Hi < b[i].Hi
		}
	}
	return len(a) < len(b)
}

// subtractRegion returns a \ b as a list of disjoint boxes.
func subtractRegion(a, b tensor.Region) []tensor.Region {
	inter, ok := a.Intersect(b)
	if !ok {
		return []tensor.Region{a.Clone()}
	}
	return subtractInto(nil, a, inter, heapRegions{})
}

// subtractInto appends the disjoint boxes of a \ b to dst, given the
// (non-empty) intersection inter = a ∩ b, allocating boxes from al.
// The common case — b cutting a along a single axis, as every
// tensor/pipeline/sequence split does — produces at most two boxes
// without cloning intermediates.
func subtractInto(dst []tensor.Region, a, inter tensor.Region, al regionAllocator) []tensor.Region {
	diff, multi := -1, false
	for d := range a {
		if inter[d] != a[d] {
			if diff >= 0 {
				multi = true
				break
			}
			diff = d
		}
	}
	if diff < 0 {
		return dst // b covers a entirely
	}
	if !multi {
		// 1-D fast path: boxes differ from a only along diff.
		if a[diff].Lo < inter[diff].Lo {
			box := cloneRegion(al, a)
			box[diff] = tensor.Range{Lo: a[diff].Lo, Hi: inter[diff].Lo}
			dst = append(dst, box)
		}
		if inter[diff].Hi < a[diff].Hi {
			box := cloneRegion(al, a)
			box[diff] = tensor.Range{Lo: inter[diff].Hi, Hi: a[diff].Hi}
			dst = append(dst, box)
		}
		return dst
	}
	cur := cloneRegion(al, a)
	for d := range a {
		if cur[d].Lo < inter[d].Lo {
			box := cloneRegion(al, cur)
			box[d] = tensor.Range{Lo: cur[d].Lo, Hi: inter[d].Lo}
			dst = append(dst, box)
		}
		if inter[d].Hi < cur[d].Hi {
			box := cloneRegion(al, cur)
			box[d] = tensor.Range{Lo: inter[d].Hi, Hi: cur[d].Hi}
			dst = append(dst, box)
		}
		cur[d] = inter[d]
	}
	return dst
}

// covers reports whether the union of regs covers all of full.
//
// The common case — every reg constraining full along the same single
// axis (or not at all), which is what TP/PP/DP/sequence splits produce —
// reduces to 1-D interval coverage and avoids the quadratic
// subtract-everything fallback.
func covers(full tensor.Region, regs []tensor.Region) bool {
	if len(regs) == 0 {
		return false
	}
	axis := -1
	for _, r := range regs {
		if len(r) != len(full) {
			return coversGeneral(full, regs)
		}
		diff := -1
		for k := range full {
			if r[k].Lo <= full[k].Lo && r[k].Hi >= full[k].Hi {
				continue // r spans this whole dimension of full
			}
			if diff >= 0 {
				diff = -2 // constrains more than one dimension
				break
			}
			diff = k
		}
		switch {
		case diff == -2:
			return coversGeneral(full, regs)
		case diff < 0:
			return true // r covers full entirely
		case axis < 0:
			axis = diff
		case axis != diff:
			return coversGeneral(full, regs)
		}
	}
	return coversAxis(full[axis], regs, axis)
}

// coversAxis checks 1-D interval coverage of full by regs' extents
// along axis, clamped to full.
func coversAxis(full tensor.Range, regs []tensor.Region, axis int) bool {
	iv := make([]tensor.Range, 0, len(regs))
	for _, r := range regs {
		rng := r[axis]
		if rng.Lo < full.Lo {
			rng.Lo = full.Lo
		}
		if rng.Hi > full.Hi {
			rng.Hi = full.Hi
		}
		if rng.Lo < rng.Hi {
			iv = append(iv, rng)
		}
	}
	slices.SortFunc(iv, func(a, b tensor.Range) int { return a.Lo - b.Lo })
	reach := full.Lo
	for _, r := range iv {
		if r.Lo > reach {
			return false
		}
		if r.Hi > reach {
			reach = r.Hi
		}
	}
	return reach >= full.Hi
}

// coversGeneral is the exact region-subtraction fallback for irregular
// tilings.
func coversGeneral(full tensor.Region, regs []tensor.Region) bool {
	remaining := []tensor.Region{full}
	for _, r := range regs {
		var next []tensor.Region
		for _, rem := range remaining {
			next = append(next, subtractRegion(rem, r)...)
		}
		remaining = next
		if len(remaining) == 0 {
			return true
		}
	}
	return len(remaining) == 0
}
