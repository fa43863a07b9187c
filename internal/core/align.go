package core

import (
	"sort"

	"tenplex/internal/cluster"
	"tenplex/internal/tensor"
)

// AlignDevices permutes the device assignment of the target PTC so that
// every placement group lands on the device that already holds the most
// bytes of it under the source PTC. The parallelization structure
// (σ, φ) is untouched — only α changes, which is legal because any
// bijection of sub-collections onto devices realizes the same
// configuration. This is part of Tenplex's minimal-data-movement
// optimization (§4.2): without alignment, growing the pipeline degree
// shifts every stage to a different device and moves nearly all state;
// with it, each device keeps the prefix of its old stage.
//
// The returned PTC uses the same device set as `to`; `to` itself is not
// modified. A target that lists a device twice has no bijection to
// permute by and is returned as it is.
//
// The cost is one pass over each distinct target list. A wanted
// sub-tensor's overlap with a tensor whose holders all hold one region
// is computed once and credited to those holders together, so a tensor
// replicated on every device costs one overlap, not one per holder.
//
// Alignment optimizes state movement, not steady-state placement: a
// pathological overlap pattern could scatter a tensor-parallel group
// across workers. In practice doubling or halving one parallelism
// degree maps whole groups onto the contiguous devices that held them,
// so NVLink locality is preserved; callers with stricter placement
// constraints can build the target PTC with an explicit allocation
// instead.
func AlignDevices(from, to *PTC) *PTC {
	type cand struct {
		group int // index into to.Devices (placement group)
		dev   cluster.DeviceID
		olap  int64
	}

	// One pass per distinct list over the source's compiled index: look
	// up the holders overlapping each wanted sub-tensor and add the
	// overlap's bytes — computed, never materialized — to a dense
	// per-source-rank accumulator, instead of re-scanning every device's
	// holdings for every (group, device) pair. A tensor with a holder set
	// (tensorIndex.set) adds its overlap once to the set's accumulator,
	// and each set the group touched is spread over its ranks at the end;
	// the sums are integers, so the order of adding does not change
	// them. Groups sharing a list
	// (the DP replicas of one rank) overlap the source alike and copy the
	// first one's candidates.
	idx := from.index()
	wants, first := idx.resolve(to, nil)
	// olap by source rank, then setOlap by the position of a set's
	// first tensor.
	olap := make([]int64, len(idx.devs)+len(idx.all))
	olap, setOlap := olap[:len(idx.devs)], olap[len(idx.devs):]
	touched := make([]int32, 0, 16)
	start := make([]int, len(to.Devices)) // group g's candidates run from cands[start[g]] to g+1's
	var cands []cand
	var hits []int32
	for g, d := range to.Devices {
		start[g] = len(cands)
		if f := first[g]; int(f) != g {
			for _, c := range cands[start[f]:start[f+1]] {
				c.group = g
				cands = append(cands, c)
			}
			continue
		}
		clear(olap)
		place := to.Place[d]
		for i, pos := range wants[g] {
			if pos < 0 || !idx.all[pos].meta.DType.Valid() { // not in the source, or never registered there
				continue
			}
			ti, want := &idx.all[pos], place[i].Region
			size := int64(ti.meta.DType.Size())
			if ti.set >= 0 {
				if bytes := overlapElems(want, ti.holders[0].reg) * size; bytes > 0 {
					if setOlap[ti.set] == 0 {
						touched = append(touched, ti.set)
					}
					setOlap[ti.set] += bytes
				}
				continue
			}
			hits = ti.lookupRegion(want, hits[:0])
			var last tensor.Region
			var bytes int64
			for _, p := range hits {
				h := &ti.holders[p]
				if !sameStorage(h.reg, last) { // replicas placed from one region overlap alike
					last, bytes = h.reg, overlapElems(want, h.reg)*size
				}
				olap[h.rank] += bytes
			}
		}
		for _, s := range touched {
			for _, h := range idx.all[s].holders {
				olap[h.rank] += setOlap[s]
			}
			setOlap[s] = 0
		}
		touched = touched[:0]
		for _, d2 := range to.Devices {
			if r := idx.rank(d2); r >= 0 && olap[r] > 0 {
				cands = append(cands, cand{group: g, dev: d2, olap: olap[r]})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].olap != cands[j].olap {
			return cands[i].olap > cands[j].olap
		}
		if cands[i].group != cands[j].group {
			return cands[i].group < cands[j].group
		}
		return cands[i].dev < cands[j].dev
	})

	assign := make(map[int]cluster.DeviceID, len(to.Devices))
	taken := map[cluster.DeviceID]bool{}
	for _, c := range cands {
		if _, done := assign[c.group]; done || taken[c.dev] {
			continue
		}
		assign[c.group] = c.dev
		taken[c.dev] = true
	}
	// Unmatched groups take the remaining devices in order. A target
	// that lists a device twice has fewer devices than groups.
	var free []cluster.DeviceID
	for _, d := range to.Devices {
		if !taken[d] {
			free = append(free, d)
			taken[d] = true
		}
	}
	if len(assign)+len(free) < len(to.Devices) {
		return to
	}
	fi := 0
	for g := range to.Devices {
		if _, done := assign[g]; !done {
			assign[g] = free[fi]
			fi++
		}
	}

	out := NewPTC(to.Name, to.Devices)
	out.Tensors = to.Tensors
	for g, oldDev := range to.Devices {
		out.Place[assign[g]] = shareList(to.Place[oldDev])
	}
	return out
}
