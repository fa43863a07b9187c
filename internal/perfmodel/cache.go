package perfmodel

import (
	"fmt"
	"sync"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// Cache memoizes the best-configuration search per (model, topology,
// device count, params) and the allocation-aware placement scores per
// (model, topology, allocation signature, Pricer source, params), each
// with the migration its Pricer planned and priced. The multi-job coordinator asks for the best (T, P, D) of the
// same handful of models at every admission, resize and recovery
// decision — and, in placement-aware mode, scores several candidate
// device sets per decision; a full sweep enumerates and prices every
// configuration each time, and a migration price plans a whole change,
// which is wasteful for queries that repeat thousands of times per
// simulation. Keys use pointer identity for the
// model and topology, so callers must reuse their catalog and topology
// values — which Tenplex jobs do by construction.
//
// Staleness is tracked per touched region, not per topology: every
// entry is stamped with the sum of the per-worker health epochs
// (cluster.Topology.WorkerEpoch) of exactly the workers its inputs
// touch. A device failure or link-scale change bumps only its own
// worker's epoch, so it invalidates only the entries whose allocations
// intersect that worker — at datacenter scale an event no longer wipes
// scores for the ~200 jobs it cannot have affected. A stale lookup
// counts as a miss and is recomputed in place.
//
// Growth is bounded by DefaultCap entries across both kinds: an insert
// of a new key into a full cache clears both maps first. The cap is a
// backstop, not a working set — a 2048-device, 200-job simulation peaks
// at a few hundred entries — so no eviction order is kept. What keeps
// a long-running service flat is shedding: placement entries, which hold
// their Pricer's planned change, are tagged with the querying job so
// DropJob sheds a finished job's scores and plans, and DropModel sheds a
// model no job will present again. Neither changes a result: the sweeps
// and, by the Pricer contract, the prices are pure, so a dropped entry
// is recomputed equal on the next query.
//
// Cache is safe for concurrent use. Concurrent misses for the same key
// may both compute the sweep; the results are equal, so last-write-wins
// is harmless.
type Cache struct {
	mu     sync.Mutex
	m      map[cacheKey]cacheEntry
	pm     map[placementKey]placementEntry
	cap    int // DefaultCap; tests shrink it
	hits   int64
	misses int64
}

// DefaultCap is the entry cap across both query kinds — ample for a
// 2048-device, 200-job simulation while bounding a long run's footprint
// to tens of MB.
const DefaultCap = 1 << 16

type cacheKey struct {
	model *model.Model
	topo  *cluster.Topology
	n     int
	p     Params
}

type cacheEntry struct {
	est   Estimate
	err   error
	stamp uint64
	ws    []int32 // workers the estimate depends on
}

type placementKey struct {
	model *model.Model
	topo  *cluster.Topology
	cfg   string // configuration under evaluation
	alloc string // Allocation.Signature of the candidate set
	src   any    // Pricer.Source: the state migrated from
	p     Params
}

type placementEntry struct {
	ps    PlacementScore
	stamp uint64
	ws    []int32 // workers of alloc ∪ Pricer.From
	job   string  // owning job for DropJob; "" = untagged
}

// NewCache returns an empty memoizing wrapper around Best,
// ScorePlacement and CheapestPlacement, capped at DefaultCap entries.
func NewCache() *Cache {
	return &Cache{
		m:   map[cacheKey]cacheEntry{},
		pm:  map[placementKey]placementEntry{},
		cap: DefaultCap,
	}
}

// stampOf sums the current health epochs of the given workers. Epochs
// only grow, so the sum is monotone in every component: any mutation of
// a listed worker changes the stamp. Duplicate workers are harmless.
func stampOf(topo *cluster.Topology, ws []int32) uint64 {
	var s uint64
	for _, w := range ws {
		s += topo.WorkerEpoch(int(w))
	}
	return s
}

// workersOf appends the (consecutively deduplicated) workers of the
// allocation to ws.
func workersOf(topo *cluster.Topology, alloc cluster.Allocation, ws []int32) []int32 {
	for _, d := range alloc {
		w := int32(topo.WorkerOf(d))
		if len(ws) == 0 || ws[len(ws)-1] != w {
			ws = append(ws, w)
		}
	}
	return ws
}

// Best returns Best(m, topo, n, p), serving repeated queries from the
// cache. Infeasible device counts (Best errors) are cached too, so the
// coordinator's downward search for a feasible lease size stays cheap.
// Entries are stamped over the workers of the first-n device prefix the
// sweep prices against, so only mutations of those workers invalidate.
func (c *Cache) Best(m *model.Model, topo *cluster.Topology, n int, p Params) (Estimate, error) {
	k := cacheKey{model: m, topo: topo, n: n, p: p}
	c.mu.Lock()
	e, ok := c.m[k]
	if ok && stampOf(topo, e.ws) == e.stamp {
		c.hits++
		c.mu.Unlock()
		return e.est, e.err
	}
	c.mu.Unlock()
	est, err := Best(m, topo, n, p)
	ws := workersOf(topo, topo.FirstN(n), nil)
	c.mu.Lock()
	c.misses++
	if _, ok := c.m[k]; !ok {
		c.makeRoomLocked()
	}
	c.m[k] = cacheEntry{est: est, err: err, stamp: stampOf(topo, ws), ws: ws}
	c.mu.Unlock()
	return est, err
}

// ScorePlacementFor returns ScorePlacement(m, cfg, topo, alloc, pr, p),
// memoized per allocation signature and pr.Source — the placement-aware
// coordinator scores the same candidate sets repeatedly as the cluster's
// free pool cycles through a handful of shapes. Infeasible scores are
// cached like feasible ones. The entry is tagged as owned by job, so
// DropJob(job) sheds it when the job leaves the cluster; "" leaves it
// untagged.
func (c *Cache) ScorePlacementFor(job string, m *model.Model, cfg parallel.Config, topo *cluster.Topology,
	alloc cluster.Allocation, pr Pricer, p Params) PlacementScore {
	k := placementKey{model: m, topo: topo, cfg: cfg.String(), alloc: alloc.Signature(), src: pr.Source, p: p}
	c.mu.Lock()
	e, ok := c.pm[k]
	if ok && stampOf(topo, e.ws) == e.stamp {
		c.hits++
		c.mu.Unlock()
		return e.ps
	}
	c.mu.Unlock()
	ps := ScorePlacement(m, cfg, topo, alloc, pr, p)
	ws := workersOf(topo, pr.From, workersOf(topo, alloc, nil))
	c.mu.Lock()
	c.misses++
	if _, ok := c.pm[k]; !ok {
		c.makeRoomLocked()
	}
	c.pm[k] = placementEntry{ps: ps, stamp: stampOf(topo, ws), ws: ws, job: job}
	c.mu.Unlock()
	return ps
}

// cheapestKeyCfg is the placementKey cfg sentinel for memoized
// CheapestPlacement sweeps; it cannot collide with a Config.String().
const cheapestKeyCfg = "<cheapest>"

// CheapestPlacementFor returns CheapestPlacement(m, topo, alloc, pr, p),
// memoized per allocation signature and pr.Source and tagged as owned by
// job like ScorePlacementFor. A failed sweep (no feasible configuration)
// is cached as an infeasible score.
func (c *Cache) CheapestPlacementFor(job string, m *model.Model, topo *cluster.Topology,
	alloc cluster.Allocation, pr Pricer, p Params) (PlacementScore, error) {
	k := placementKey{model: m, topo: topo, cfg: cheapestKeyCfg, alloc: alloc.Signature(), src: pr.Source, p: p}
	c.mu.Lock()
	e, ok := c.pm[k]
	if ok && stampOf(topo, e.ws) == e.stamp {
		c.hits++
		c.mu.Unlock()
	} else {
		c.mu.Unlock()
		ps, err := CheapestPlacement(m, topo, alloc, pr, p)
		if err != nil {
			ps = PlacementScore{Reason: err.Error()}
		}
		ws := workersOf(topo, pr.From, workersOf(topo, alloc, nil))
		e = placementEntry{ps: ps, stamp: stampOf(topo, ws), ws: ws, job: job}
		c.mu.Lock()
		c.misses++
		if _, ok := c.pm[k]; !ok {
			c.makeRoomLocked()
		}
		c.pm[k] = e
		c.mu.Unlock()
	}
	if !e.ps.Feasible {
		return PlacementScore{}, fmt.Errorf("perfmodel: %s", e.ps.Reason)
	}
	return e.ps, nil
}

// DropJob evicts every placement entry tagged with job (via the *For
// variants) and returns the number dropped. The coordinator calls it
// when a job completes or is lost, so a long multi-job run does not
// retain scores for dead jobs.
func (c *Cache) DropJob(job string) int {
	if job == "" {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.pm {
		if e.job == job {
			delete(c.pm, k)
			n++
		}
	}
	return n
}

// DropModel evicts every entry of either kind computed for m. Keys hold
// the model by pointer, so a model no job will present again — a
// service decodes one per submission — can never hit; the coordinator
// calls this when the last job sharing m is terminal.
func (c *Cache) DropModel(m *model.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.m {
		if k.model == m {
			delete(c.m, k)
		}
	}
	for k := range c.pm {
		if k.model == m {
			delete(c.pm, k)
		}
	}
}

// makeRoomLocked clears both maps when one more entry would pass the
// cap.
func (c *Cache) makeRoomLocked() {
	if len(c.m)+len(c.pm) >= c.cap {
		clear(c.m)
		clear(c.pm)
	}
}

// Stats reports cache hits and misses since creation (count-based and
// placement queries combined).
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached keys across both query kinds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m) + len(c.pm)
}
