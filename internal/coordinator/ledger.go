package coordinator

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"tenplex/internal/cluster"
)

// Ledger is the coordinator's device ownership book: every GPU of the
// shared topology is free, leased to exactly one job, or failed. All
// mutations go through Lease / Release / MarkFailed, which reject any
// transition that would double-allocate a device; Validate cross-checks
// the two internal views so the event loop can assert the invariant
// after every event. Failure state lives in the topology itself
// (cluster.Topology.MarkFailed/FailedDevice) — the one source of truth
// the ledger, the placement scorer and the perfmodel cache generations
// all read. The Ledger is mutated only by the coordinator's event loop
// and is therefore not internally locked.
//
// For datacenter-scale topologies the ledger maintains the free pool
// incrementally instead of rescanning every device per decision:
// per-worker free-device lists, per-count worker bitmaps (so "workers
// with the most/fewest free devices" resolves by scanning a handful of
// machine words instead of sorting all workers), and per-rack free
// totals. Mutations only mark the touched workers dirty; the summaries
// are lazily re-derived for exactly those workers at the next query —
// the update-vs-recompute structure that keeps per-decision cost flat
// in cluster size. The from-scratch enumeration they replaced is the
// reference of the property suite (ledger_scratch_test.go), which holds
// the two byte-identical.
type Ledger struct {
	topo   *cluster.Topology
	owner  map[cluster.DeviceID]string   // "" or absent = free
	leases map[string]cluster.Allocation // per-job devices, lease order
	// suspicion counts observed failures per device; a flapping device
	// accumulates one per actual fail transition (duplicates are not
	// counted) and the coordinator's failure detector quarantines it
	// once the count reaches its threshold.
	suspicion map[cluster.DeviceID]int
	// draining devices are healthy but excluded from the free pool —
	// a spot-reclamation notice has promised their disappearance.
	draining map[cluster.DeviceID]bool

	// leased counts devices currently held by jobs, maintained on every
	// mutation so LeasedCount is O(1) (the event loop reads it per
	// event for utilization integration).
	leased int

	// Incremental free-pool summaries, derived lazily from owner /
	// failed / draining state. freeByWorker[w] holds worker w's free
	// devices in ID order; countOf[w] its length (-1 before first
	// sync); buckets[c] the set of workers with exactly c free devices;
	// rackFree the per-rack free totals (hierarchical topologies).
	// dirty is the set of workers whose summaries are stale; allDirty
	// forces a full rebuild (first sync, or an out-of-band topology
	// mutation detected via genSeen).
	freeByWorker [][]cluster.DeviceID
	countOf      []int
	buckets      []workerBits
	rackFree     []int
	freeCount    int
	dirty        map[int]struct{}
	allDirty     bool
	genSeen      uint64
}

// workerBits is a bitmap over worker indices; buckets use it so the
// "workers with c free devices" sets support O(1) insert/remove and
// ID-ordered iteration by scanning words.
type workerBits []uint64

func newWorkerBits(n int) workerBits { return make(workerBits, (n+63)/64) }

func (b workerBits) set(w int)   { b[w>>6] |= 1 << uint(w&63) }
func (b workerBits) clear(w int) { b[w>>6] &^= 1 << uint(w&63) }

// ascend calls f for every set worker in ascending ID order, stopping
// when f returns false.
func (b workerBits) ascend(f func(w int) bool) {
	for i, word := range b {
		for word != 0 {
			w := i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if !f(w) {
				return
			}
		}
	}
}

// NewLedger starts with every device of the topology free; device
// health is read from (and written through to) the topology.
func NewLedger(topo *cluster.Topology) *Ledger {
	return &Ledger{
		topo:     topo,
		owner:    map[cluster.DeviceID]string{},
		leases:   map[string]cluster.Allocation{},
		dirty:    map[int]struct{}{},
		allDirty: true,
	}
}

// markDirty flags device d's worker for lazy summary refresh.
func (l *Ledger) markDirty(d cluster.DeviceID) {
	if l.allDirty {
		return
	}
	l.dirty[l.topo.WorkerOf(d)] = struct{}{}
}

// sync brings the free-pool summaries up to date: only workers touched
// since the last query are re-derived. A topology generation the
// ledger's own mutations don't account for (health mutated behind the
// ledger's back) conservatively rebuilds everything.
func (l *Ledger) sync() {
	if l.freeByWorker == nil {
		nw := l.topo.NumWorkers()
		l.freeByWorker = make([][]cluster.DeviceID, nw)
		l.countOf = make([]int, nw)
		for i := range l.countOf {
			l.countOf[i] = -1
		}
		maxPer := 0
		for i := range l.topo.Workers {
			if n := len(l.topo.Workers[i].Devices); n > maxPer {
				maxPer = n
			}
		}
		l.buckets = make([]workerBits, maxPer+1)
		for c := range l.buckets {
			l.buckets[c] = newWorkerBits(nw)
		}
		l.rackFree = make([]int, l.topo.NumRacks())
		l.allDirty = true
	}
	if g := l.topo.Generation(); g != l.genSeen {
		l.allDirty = true
		l.genSeen = g
	}
	if l.allDirty {
		for w := range l.freeByWorker {
			l.rebuildWorker(w)
		}
		l.allDirty = false
		for w := range l.dirty {
			delete(l.dirty, w)
		}
		return
	}
	for w := range l.dirty {
		l.rebuildWorker(w)
		delete(l.dirty, w)
	}
}

// rebuildWorker re-derives one worker's free list (worker device lists
// are ID-ascending by construction, so the result is too) and moves the
// worker between count buckets.
func (l *Ledger) rebuildWorker(w int) {
	list := l.freeByWorker[w][:0]
	for _, d := range l.topo.Workers[w].Devices {
		if l.owner[d] == "" && !l.topo.FailedDevice(d) && !l.draining[d] {
			list = append(list, d)
		}
	}
	l.freeByWorker[w] = list
	n := len(list)
	old := l.countOf[w]
	if old == n {
		return
	}
	if old >= 0 {
		l.buckets[old].clear(w)
		l.freeCount -= old
		l.rackFree[l.topo.RackOf(w)] -= old
	}
	l.buckets[n].set(w)
	l.countOf[w] = n
	l.freeCount += n
	l.rackFree[l.topo.RackOf(w)] += n
}

// FreeCount returns the number of healthy, unleased devices, O(1)
// after the lazy summary refresh.
func (l *Ledger) FreeCount() int {
	l.sync()
	return l.freeCount
}

// Healthy returns the number of non-failed devices.
func (l *Ledger) Healthy() int {
	return l.topo.NumDevices() - l.topo.FailedCount()
}

// LeasedCount returns the number of devices currently leased to jobs.
func (l *Ledger) LeasedCount() int { return l.leased }

// Owner returns the job holding device d, if any.
func (l *Ledger) Owner(d cluster.DeviceID) (string, bool) {
	job := l.owner[d]
	return job, job != ""
}

// Allocation returns a copy of the job's leased devices in lease order.
func (l *Ledger) Allocation(job string) cluster.Allocation {
	return append(cluster.Allocation(nil), l.leases[job]...)
}

// Lease assigns the given devices to job. It fails atomically — without
// leasing anything — if any device is already owned, failed, out of
// range, or listed twice.
func (l *Ledger) Lease(job string, devs ...cluster.DeviceID) error {
	if job == "" {
		return fmt.Errorf("coordinator: lease needs a job name")
	}
	seen := map[cluster.DeviceID]bool{}
	for _, d := range devs {
		if int(d) < 0 || int(d) >= l.topo.NumDevices() {
			return fmt.Errorf("coordinator: lease of unknown device %d", d)
		}
		if seen[d] {
			return fmt.Errorf("coordinator: device %d listed twice in lease for %s", d, job)
		}
		seen[d] = true
		if l.topo.FailedDevice(d) {
			return fmt.Errorf("coordinator: device %d is failed", d)
		}
		if o := l.owner[d]; o != "" {
			return fmt.Errorf("coordinator: device %d already leased to %s", d, o)
		}
	}
	for _, d := range devs {
		l.owner[d] = job
		l.markDirty(d)
	}
	l.leases[job] = append(l.leases[job], devs...)
	l.leased += len(devs)
	return nil
}

// Release returns the given devices from job to the free pool. It fails
// atomically if any device is not held by job.
func (l *Ledger) Release(job string, devs ...cluster.DeviceID) error {
	drop := map[cluster.DeviceID]bool{}
	for _, d := range devs {
		if l.owner[d] != job {
			return fmt.Errorf("coordinator: device %d not leased to %s", d, job)
		}
		if drop[d] {
			return fmt.Errorf("coordinator: device %d listed twice in release for %s", d, job)
		}
		drop[d] = true
	}
	for _, d := range devs {
		delete(l.owner, d)
		l.markDirty(d)
	}
	kept := l.leases[job][:0]
	for _, d := range l.leases[job] {
		if !drop[d] {
			kept = append(kept, d)
		}
	}
	if len(kept) == 0 {
		delete(l.leases, job)
	} else {
		l.leases[job] = kept
	}
	l.leased -= len(devs)
	return nil
}

// ReleaseAll returns every device the job holds.
func (l *Ledger) ReleaseAll(job string) {
	for _, d := range l.leases[job] {
		delete(l.owner, d)
		l.markDirty(d)
	}
	l.leased -= len(l.leases[job])
	delete(l.leases, job)
}

// MarkFailed removes device d from service and returns the job that
// was holding it, if any. The device leaves the owner's lease and does
// not re-enter the free pool until MarkRecovered. The topology itself
// is marked too (bumping its generation), so placement scoring and any
// memoization keyed on the topology see the post-failure cluster.
//
// MarkFailed is idempotent: flapping devices and spot deadlines can
// deliver duplicate fail events for a device that is already down, and
// repeats return "" without touching leases, suspicion counts, or the
// topology generation.
func (l *Ledger) MarkFailed(d cluster.DeviceID) string {
	if l.topo.FailedDevice(d) {
		return ""
	}
	job := l.owner[d]
	l.topo.MarkFailed(d)
	l.genSeen = l.topo.Generation()
	l.markDirty(d)
	if l.suspicion == nil {
		l.suspicion = map[cluster.DeviceID]int{}
	}
	l.suspicion[d]++
	delete(l.draining, d) // a dead device no longer drains
	if job != "" {
		delete(l.owner, d)
		kept := l.leases[job][:0]
		for _, h := range l.leases[job] {
			if h != d {
				kept = append(kept, h)
			}
		}
		l.leases[job] = kept
		l.leased--
	}
	return job
}

// MarkRecovered returns a flapped device to service (clearing the
// topology's failed mark). The caller's failure detector decides
// whether to call it at all — a quarantined device is simply never
// recovered. A no-op for healthy devices.
func (l *Ledger) MarkRecovered(d cluster.DeviceID) {
	if !l.topo.FailedDevice(d) {
		return
	}
	l.topo.MarkRecovered(d)
	l.genSeen = l.topo.Generation()
	l.markDirty(d)
}

// Suspicion returns the number of fail transitions observed for d.
func (l *Ledger) Suspicion(d cluster.DeviceID) int { return l.suspicion[d] }

// SetDraining marks or unmarks a healthy device as draining: still
// alive (leases and running jobs are untouched) but excluded from the
// free pool, because a spot reclamation will take it shortly.
func (l *Ledger) SetDraining(d cluster.DeviceID, on bool) {
	if !on {
		delete(l.draining, d)
		l.markDirty(d)
		return
	}
	if l.draining == nil {
		l.draining = map[cluster.DeviceID]bool{}
	}
	l.draining[d] = true
	l.markDirty(d)
}

// Failed reports whether device d has failed.
func (l *Ledger) Failed(d cluster.DeviceID) bool { return l.topo.FailedDevice(d) }

// Validate cross-checks the owner map against the per-job leases: every
// leased device is owned by exactly the job whose lease lists it, no
// device appears in two leases, and no failed device is leased. It is
// the no-double-allocation invariant the event loop asserts after every
// event.
func (l *Ledger) Validate() error {
	fromLeases := map[cluster.DeviceID]string{}
	jobs := make([]string, 0, len(l.leases))
	for job := range l.leases {
		jobs = append(jobs, job)
	}
	sort.Strings(jobs)
	leased := 0
	for _, job := range jobs {
		leased += len(l.leases[job])
		for _, d := range l.leases[job] {
			if prev, ok := fromLeases[d]; ok {
				return fmt.Errorf("coordinator: device %d leased to both %s and %s", d, prev, job)
			}
			fromLeases[d] = job
			if l.topo.FailedDevice(d) {
				return fmt.Errorf("coordinator: failed device %d leased to %s", d, job)
			}
			if l.owner[d] != job {
				return fmt.Errorf("coordinator: device %d owner %q disagrees with lease of %s", d, l.owner[d], job)
			}
		}
	}
	for d, job := range l.owner {
		if job != "" && fromLeases[d] != job {
			return fmt.Errorf("coordinator: owner map has %d -> %s without a matching lease", d, job)
		}
	}
	if leased != l.leased {
		return fmt.Errorf("coordinator: leased-device counter %d disagrees with leases (%d)", l.leased, leased)
	}
	return nil
}

// Pick selects n free devices for a lease, minimizing worker spread:
// workers already hosting devices of prefer come first, then workers
// with the most free devices (so whole machines fill up before the
// allocation fragments), ties broken by worker ID. Within a worker,
// devices are taken in ID order. The choice is deterministic. ok is
// false when fewer than n devices are free.
func (l *Ledger) Pick(n int, prefer cluster.Allocation) ([]cluster.DeviceID, bool) {
	l.sync()
	return l.packFast(n, l.preferredWorkers(prefer), false)
}

func (l *Ledger) preferredWorkers(prefer cluster.Allocation) map[int]bool {
	if len(prefer) == 0 {
		return nil
	}
	preferred := map[int]bool{}
	for _, d := range prefer {
		preferred[l.topo.WorkerOf(d)] = true
	}
	return preferred
}

// CandidateSets enumerates up to k distinct lease-feasible device sets
// of size n from the free pool, for the placement-aware coordinator to
// score and rank — instead of committing to the single count-based
// compact pick. The first candidate is always Pick's choice, so a
// policy that declines to rank (or a disabled placement mode) degrades
// exactly to the count-based behavior. The remaining candidates come
// from deterministic heuristics with different biases: compact packing
// without worker affinity, best-fit packing that consumes fragmented
// workers first (leaving whole machines for future gangs), a rack-local
// pack on hierarchical topologies (all candidates behind one rack
// switch), whole single-worker sets (all-NVLink TP groups), and a
// round-robin spread across workers (one NIC per DP replica).
// Duplicates are removed; the result is deterministic.
//
// The enumeration runs on the incremental per-worker summaries: only
// workers touched since the last decision are re-derived, so the cost
// is governed by the candidate size and the event's footprint, not the
// cluster size.
func (l *Ledger) CandidateSets(n, k int, prefer cluster.Allocation) []cluster.Allocation {
	if n < 1 || k < 1 {
		return nil
	}
	l.sync()
	if l.freeCount < n {
		return nil
	}
	preferred := l.preferredWorkers(prefer)
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
	add(l.packFast(n, preferred, false))
	add(l.packFast(n, nil, false))
	add(l.packFast(n, preferred, true))
	if l.topo.Hier != nil {
		add(l.packRackFast(n))
	}
	// Whole single-worker sets: the best possible interconnect for a
	// TP-heavy configuration.
	l.wholeWorkerSets(n, add)
	add(l.packSpreadFast(n))
	return out
}

// walkPack visits workers in packing order — preferred workers first
// (sorted by free count, ties by ID), then the rest bucket by bucket —
// with asc selecting best-fit (fewest free first) versus compact (most
// free first). f returns false to stop the walk.
func (l *Ledger) walkPack(preferred map[int]bool, asc bool, f func(w int) bool) {
	if len(preferred) > 0 {
		pws := make([]int, 0, len(preferred))
		for w := range preferred {
			if w >= 0 && w < len(l.countOf) && l.countOf[w] > 0 {
				pws = append(pws, w)
			}
		}
		sort.Slice(pws, func(i, j int) bool {
			wi, wj := pws[i], pws[j]
			ci, cj := l.countOf[wi], l.countOf[wj]
			if ci != cj {
				if asc {
					return ci < cj
				}
				return ci > cj
			}
			return wi < wj
		})
		for _, w := range pws {
			if !f(w) {
				return
			}
		}
	}
	stopped := false
	visit := func(w int) bool {
		if preferred[w] {
			return true
		}
		if !f(w) {
			stopped = true
			return false
		}
		return true
	}
	if asc {
		for c := 1; c < len(l.buckets) && !stopped; c++ {
			l.buckets[c].ascend(visit)
		}
	} else {
		for c := len(l.buckets) - 1; c >= 1 && !stopped; c-- {
			l.buckets[c].ascend(visit)
		}
	}
}

// take appends devs to out until it holds n devices and reports whether
// there is room for more: every packing walk's per-worker step.
func take(out *[]cluster.DeviceID, devs []cluster.DeviceID, n int) bool {
	for _, d := range devs {
		*out = append(*out, d)
		if len(*out) == n {
			return false
		}
	}
	return true
}

// packFast packs n free devices in compact (asc false: most-free
// workers first) or best-fit (asc true: fewest-free first) order,
// preferred workers leading either way.
func (l *Ledger) packFast(n int, preferred map[int]bool, asc bool) ([]cluster.DeviceID, bool) {
	if l.freeCount < n {
		return nil, false
	}
	out := make([]cluster.DeviceID, 0, n)
	l.walkPack(preferred, asc, func(w int) bool { return take(&out, l.freeByWorker[w], n) })
	return out, len(out) == n
}

// Repack packs n devices compactly as if job's own lease were free — the
// placement defragmentation would move the job to — and returns them
// with the number of workers they span. A worker holding some of the
// job's devices offers those (draining ones included: they are still
// the job's) together with its free ones, in ID order, and for this one
// walk sits in the count bucket of their sum.
func (l *Ledger) Repack(job string, n int) ([]cluster.DeviceID, int, bool) {
	l.sync()
	own := l.leases[job]
	if n < 1 || l.freeCount+len(own) < n {
		return nil, 0, false
	}
	byWorker := map[int][]cluster.DeviceID{}
	for _, d := range own {
		w := l.topo.WorkerOf(d)
		byWorker[w] = append(byWorker[w], d)
	}
	rebucket := func(back bool) {
		for w, ds := range byWorker {
			from, to := l.countOf[w], l.countOf[w]+len(ds)
			if back {
				from, to = to, from
			}
			l.buckets[from].clear(w)
			l.buckets[to].set(w)
		}
	}
	rebucket(false)
	defer rebucket(true)
	out := make([]cluster.DeviceID, 0, n)
	workers := 0
	l.walkPack(nil, false, func(w int) bool {
		workers++
		devs := l.freeByWorker[w]
		if ds := byWorker[w]; ds != nil {
			devs = slices.Concat(ds, devs)
			slices.Sort(devs)
		}
		return take(&out, devs, n)
	})
	return out, workers, len(out) == n
}

// packSpreadFast spreads via the summaries: round-robin over the
// workers with the most free devices — one NIC per data-parallel replica
// instead of one crowded machine. Only the first n workers in (count
// desc, ID) order can ever contribute, so the walk materializes at most
// n workers regardless of cluster size.
func (l *Ledger) packSpreadFast(n int) ([]cluster.DeviceID, bool) {
	if l.freeCount < n {
		return nil, false
	}
	ws := make([]int, 0, n)
	l.walkPack(nil, false, func(w int) bool {
		ws = append(ws, w)
		return len(ws) < n
	})
	out := make([]cluster.DeviceID, 0, n)
	for round := 0; len(out) < n; round++ {
		took := false
		for _, w := range ws {
			if round < len(l.freeByWorker[w]) {
				out = append(out, l.freeByWorker[w][round])
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

// wholeWorkerSets feeds add every worker that can host the whole
// allocation alone (ID order), via a union of the count buckets >= n.
func (l *Ledger) wholeWorkerSets(n int, add func(devs []cluster.DeviceID, ok bool)) {
	if n >= len(l.buckets) {
		return
	}
	acc := newWorkerBits(len(l.countOf))
	for c := n; c < len(l.buckets); c++ {
		for i, word := range l.buckets[c] {
			acc[i] |= word
		}
	}
	acc.ascend(func(w int) bool {
		add(l.freeByWorker[w][:n], true)
		return true
	})
}

// packRackFast packs n devices inside the single rack with the most
// free devices (ties: lowest rack ID), workers by free count then ID —
// the locality-aware candidate for hierarchical topologies: the whole
// gang behind one rack switch, no oversubscribed uplink in its rings.
func (l *Ledger) packRackFast(n int) ([]cluster.DeviceID, bool) {
	best := -1
	for r, c := range l.rackFree {
		if c >= n && (best < 0 || c > l.rackFree[best]) {
			best = r
		}
	}
	if best < 0 {
		return nil, false
	}
	out := make([]cluster.DeviceID, 0, n)
	l.walkPack(nil, false, func(w int) bool {
		return l.topo.RackOf(w) != best || take(&out, l.freeByWorker[w], n)
	})
	return out, len(out) == n
}
