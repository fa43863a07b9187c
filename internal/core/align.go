package core

import (
	"maps"
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
// modified.
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

	// One interval-indexed pass per distinct list over the source's
	// compiled index: look up the holders overlapping each wanted
	// sub-tensor and add the overlap's bytes — computed, never
	// materialized — to a dense per-source-rank accumulator, instead of
	// re-scanning every device's holdings for every (group, device) pair.
	// Groups sharing a list (the DP replicas of one rank) overlap the
	// source alike and copy the first one's candidates.
	idx := from.index()
	wants, first := idx.resolve(to)
	olap := make([]int64, len(idx.devs))
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
	// Unmatched groups take the remaining devices in order.
	var free []cluster.DeviceID
	for _, d := range to.Devices {
		if !taken[d] {
			free = append(free, d)
		}
	}
	fi := 0
	for g := range to.Devices {
		if _, done := assign[g]; !done {
			assign[g] = free[fi]
			fi++
		}
	}

	out := NewPTC(to.Name, to.Devices)
	out.Tensors = maps.Clone(to.Tensors)
	for g, oldDev := range to.Devices {
		out.Place[assign[g]] = shareList(to.Place[oldDev])
	}
	return out
}
