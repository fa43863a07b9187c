package coordinator

import (
	"sort"

	"tenplex/internal/cluster"
)

// The from-scratch free scan and candidate enumeration the ledger's
// incremental summaries replaced, kept as the reference of the seeded
// property suite in ledger_prop_test.go.

// freeScratch is the retained from-scratch free scan, the reference
// the incremental summaries are property-tested against.
func (l *Ledger) freeScratch() []cluster.DeviceID {
	var out []cluster.DeviceID
	for _, d := range l.topo.Devices {
		if l.owner[d.ID] == "" && !l.topo.FailedDevice(d.ID) && !l.draining[d.ID] {
			out = append(out, d.ID)
		}
	}
	return out
}

// candidateSetsScratch is the retained from-scratch enumeration: the
// same candidate stream as CandidateSets, derived by rescanning the
// whole device list and sorting all workers per heuristic. It exists
// as the reference for the incremental path — the seeded property
// suite asserts byte-identical output over thousands of interleaved
// lease/reclaim/fail/drain sequences — and costs O(devices) per call,
// which is exactly what the incremental summaries avoid.
func (l *Ledger) candidateSetsScratch(n, k int, prefer cluster.Allocation) []cluster.Allocation {
	if n < 1 || k < 1 {
		return nil
	}
	free := l.freeScratch()
	if len(free) < n {
		return nil
	}
	preferred := map[int]bool{}
	for _, d := range prefer {
		preferred[l.topo.WorkerOf(d)] = true
	}
	var out []cluster.Allocation
	seen := map[string]bool{}
	add := func(devs []cluster.DeviceID, ok bool) {
		if !ok || len(out) >= k {
			return
		}
		sig := cluster.Allocation(devs).Signature()
		if seen[sig] {
			return
		}
		seen[sig] = true
		out = append(out, append(cluster.Allocation(nil), devs...))
	}
	add(packCompact(l.topo, free, n, preferred))
	add(packCompact(l.topo, free, n, nil))
	add(packBestFit(l.topo, free, n, preferred))
	if l.topo.Hier != nil {
		add(packRackScratch(l.topo, free, n))
	}
	// Whole single-worker sets: the best possible interconnect for a
	// TP-heavy configuration.
	byWorker, workers := groupByWorker(l.topo, free)
	sort.Ints(workers)
	for _, w := range workers {
		if len(byWorker[w]) >= n {
			add(byWorker[w][:n], true)
		}
	}
	add(packSpread(l.topo, free, n))
	return out
}

// groupByWorker buckets the available devices per worker (in input
// order) and returns the workers that have any, in first-seen order.
func groupByWorker(topo *cluster.Topology, avail []cluster.DeviceID) (map[int][]cluster.DeviceID, []int) {
	byWorker := map[int][]cluster.DeviceID{}
	var workers []int
	for _, d := range avail {
		w := topo.WorkerOf(d)
		if len(byWorker[w]) == 0 {
			workers = append(workers, w)
		}
		byWorker[w] = append(byWorker[w], d)
	}
	return byWorker, workers
}

// packCompact greedily packs n of the available devices onto as few
// workers as possible: preferred workers first, then workers offering
// the most devices, ties broken by worker ID; devices in ID order
// within a worker. It is the reference for Pick and the compact
// candidates (packFast) and, over own ∪ free, for defragmentation's
// Repack.
func packCompact(topo *cluster.Topology, avail []cluster.DeviceID, n int, preferred map[int]bool) ([]cluster.DeviceID, bool) {
	if len(avail) < n {
		return nil, false
	}
	byWorker, workers := groupByWorker(topo, avail)
	for _, devs := range byWorker {
		sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	}
	sort.Slice(workers, func(i, j int) bool {
		wi, wj := workers[i], workers[j]
		if preferred[wi] != preferred[wj] {
			return preferred[wi]
		}
		if len(byWorker[wi]) != len(byWorker[wj]) {
			return len(byWorker[wi]) > len(byWorker[wj])
		}
		return wi < wj
	})
	out := make([]cluster.DeviceID, 0, n)
	for _, w := range workers {
		for _, d := range byWorker[w] {
			if len(out) == n {
				return out, true
			}
			out = append(out, d)
		}
	}
	return out, len(out) == n
}

// packBestFit packs n devices consuming the workers with the fewest
// free devices first (preferred workers still lead): fragments get used
// up and whole machines stay whole for jobs that need them.
func packBestFit(topo *cluster.Topology, avail []cluster.DeviceID, n int, preferred map[int]bool) ([]cluster.DeviceID, bool) {
	if len(avail) < n {
		return nil, false
	}
	byWorker, workers := groupByWorker(topo, avail)
	sort.Slice(workers, func(i, j int) bool {
		wi, wj := workers[i], workers[j]
		if preferred[wi] != preferred[wj] {
			return preferred[wi]
		}
		if len(byWorker[wi]) != len(byWorker[wj]) {
			return len(byWorker[wi]) < len(byWorker[wj])
		}
		return wi < wj
	})
	out := make([]cluster.DeviceID, 0, n)
	for _, w := range workers {
		for _, d := range byWorker[w] {
			if len(out) == n {
				return out, true
			}
			out = append(out, d)
		}
	}
	return out, len(out) == n
}

// packSpread distributes n devices round-robin over the workers with
// the most free devices — one NIC per data-parallel replica instead of
// one crowded machine.
func packSpread(topo *cluster.Topology, avail []cluster.DeviceID, n int) ([]cluster.DeviceID, bool) {
	if len(avail) < n {
		return nil, false
	}
	byWorker, workers := groupByWorker(topo, avail)
	sort.Slice(workers, func(i, j int) bool {
		wi, wj := workers[i], workers[j]
		if len(byWorker[wi]) != len(byWorker[wj]) {
			return len(byWorker[wi]) > len(byWorker[wj])
		}
		return wi < wj
	})
	out := make([]cluster.DeviceID, 0, n)
	for round := 0; len(out) < n; round++ {
		took := false
		for _, w := range workers {
			if round < len(byWorker[w]) {
				out = append(out, byWorker[w][round])
				took = true
				if len(out) == n {
					return out, true
				}
			}
		}
		if !took {
			break
		}
	}
	return out, len(out) == n
}

// packRackScratch is packRackFast's from-scratch reference: the rack
// with the most available devices (ties: lowest rack ID), packed
// compactly (workers by count desc, ID asc; devices in ID order).
func packRackScratch(topo *cluster.Topology, avail []cluster.DeviceID, n int) ([]cluster.DeviceID, bool) {
	rackFree := make([]int, topo.NumRacks())
	for _, d := range avail {
		rackFree[topo.RackOf(topo.WorkerOf(d))]++
	}
	best := -1
	for r, c := range rackFree {
		if c >= n && (best < 0 || c > rackFree[best]) {
			best = r
		}
	}
	if best < 0 {
		return nil, false
	}
	inRack := make([]cluster.DeviceID, 0, rackFree[best])
	for _, d := range avail {
		if topo.RackOf(topo.WorkerOf(d)) == best {
			inRack = append(inRack, d)
		}
	}
	return packCompact(topo, inRack, n, nil)
}
