package core

import (
	"maps"
	"sort"

	"tenplex/internal/cluster"
	"tenplex/internal/tensor"
)

// alignDevicesPerHolder is AlignDevices as it was before tensors whose
// holders all hold one region were summed once per holder set: it adds
// every holder's overlap to its device on its own. AlignDevices must
// return equal PTCs (TestAlignDevicesMatchesPerHolder). A target
// listing a device twice is out of its domain.
func alignDevicesPerHolder(from, to *PTC) *PTC {
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
	wants, first := idx.resolve(to, nil)
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
