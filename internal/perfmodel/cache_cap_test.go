package perfmodel

import (
	"fmt"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// TestCacheSurvivesUnrelatedFailure pins the epoch-locality property
// the datacenter-scale control plane depends on: a device failure
// invalidates only the entries whose allocations touch the failed
// worker. Under the old generation-keyed cache, one failure wiped
// every job's scores.
func TestCacheSurvivesUnrelatedFailure(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	topo := cluster.OnPrem16() // 4 workers x 4 devices
	p := DefaultParams()
	p.DeviceMemGB = 0
	c := NewCache()
	cfg := parallel.Config{TP: 1, PP: 2, DP: 2}
	w0 := topo.FirstN(4)                                        // worker 0
	w1 := cluster.Allocation{4, 5, 6, 7}                        // worker 1
	if topo.WorkerOf(w1[0]) != 1 || topo.WorkerOf(w1[3]) != 1 { // layout guard
		t.Fatalf("expected devices 4-7 on worker 1")
	}
	c.ScorePlacementFor("", m, cfg, topo, w0, Pricer{}, p)
	c.ScorePlacementFor("", m, cfg, topo, w1, Pricer{}, p)

	topo.MarkFailed(w0[0]) // bumps only worker 0's epoch

	hitsBefore, missesBefore := c.Stats()
	c.ScorePlacementFor("", m, cfg, topo, w1, Pricer{}, p)
	if hits, _ := c.Stats(); hits != hitsBefore+1 {
		t.Fatal("failure on worker 0 evicted worker 1's placement score")
	}
	c.ScorePlacementFor("", m, cfg, topo, w0, Pricer{}, p)
	if _, misses := c.Stats(); misses != missesBefore+1 {
		t.Fatal("failure on worker 0 did not invalidate worker 0's placement score")
	}
}

// TestCacheDropJob: a completed job's tagged placement entries are shed
// eagerly, other jobs' entries stay hot.
func TestCacheDropJob(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	topo := cluster.OnPrem16()
	p := DefaultParams()
	p.DeviceMemGB = 0
	c := NewCache()
	cfg := parallel.Config{TP: 1, PP: 2, DP: 2}
	allocA := topo.FirstN(4)
	allocB := cluster.Allocation{4, 5, 6, 7}
	c.ScorePlacementFor("job-a", m, cfg, topo, allocA, Pricer{}, p)
	if _, err := c.CheapestPlacementFor("job-a", m, topo, allocA, planPricer(m, topo, cfg, allocA), p); err != nil {
		t.Fatal(err)
	}
	c.ScorePlacementFor("job-b", m, cfg, topo, allocB, Pricer{}, p)
	before := c.Len()

	if n := c.DropJob("job-a"); n != 2 {
		t.Fatalf("DropJob(job-a) dropped %d entries, want 2", n)
	}
	if got := c.Len(); got != before-2 {
		t.Fatalf("Len() = %d after DropJob, want %d", got, before-2)
	}
	hitsBefore, _ := c.Stats()
	c.ScorePlacementFor("job-b", m, cfg, topo, allocB, Pricer{}, p)
	if hits, _ := c.Stats(); hits != hitsBefore+1 {
		t.Fatal("DropJob(job-a) evicted job-b's entry")
	}
	_, missesBefore := c.Stats()
	c.ScorePlacementFor("job-a", m, cfg, topo, allocA, Pricer{}, p)
	if _, misses := c.Stats(); misses != missesBefore+1 {
		t.Fatal("job-a's entry survived DropJob")
	}
	if n := c.DropJob(""); n != 0 {
		t.Fatalf("DropJob(\"\") dropped %d entries, want 0", n)
	}
}

// TestCacheDropModel: every entry computed for a model goes, of both
// kinds; another model's entries stay hot.
func TestCacheDropModel(t *testing.T) {
	gone, kept := model.GPTCustom(4, 16, 2, 32, 8), model.GPTCustom(4, 16, 2, 32, 8)
	topo := cluster.OnPrem16()
	p := DefaultParams()
	p.DeviceMemGB = 0
	c := NewCache()
	cfg := parallel.Config{TP: 1, PP: 2, DP: 2}
	alloc := topo.FirstN(4)
	for _, m := range []*model.Model{gone, kept} {
		for n := 1; n <= 4; n++ {
			c.Best(m, topo, n, p) //nolint:errcheck // infeasible counts are cached like feasible ones
		}
		c.ScorePlacementFor("job", m, cfg, topo, alloc, Pricer{}, p)
	}
	c.DropModel(gone)
	if got := c.Len(); got != 5 {
		t.Fatalf("Len() = %d after DropModel, want the other model's 5 entries", got)
	}
	hitsBefore, missesBefore := c.Stats()
	c.Best(kept, topo, 4, p) //nolint:errcheck
	c.ScorePlacementFor("job", kept, cfg, topo, alloc, Pricer{}, p)
	c.Best(gone, topo, 4, p) //nolint:errcheck
	if hits, misses := c.Stats(); hits != hitsBefore+2 || misses != missesBefore+1 {
		t.Fatalf("after DropModel: %d hits and %d misses, want 2 and 1", hits-hitsBefore, misses-missesBefore)
	}
}

// TestCacheCapBoundsGrowth: the cap holds under sustained distinct
// queries, the newest entry always survives, and a stale entry misses.
func TestCacheCapBoundsGrowth(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	topo := cluster.OnPrem16()
	p := DefaultParams()
	p.DeviceMemGB = 0
	c := NewCache()
	c.cap = 8
	cfg := parallel.Config{TP: 1, PP: 2, DP: 2}
	// Distinct keys via distinct sources migrated onto the same alloc.
	alloc := cluster.Allocation{4, 5, 6, 7}
	for i := 0; i < 40; i++ {
		cur := Pricer{Source: i, From: cluster.Allocation{cluster.DeviceID(i % topo.NumDevices())}}
		c.ScorePlacementFor(fmt.Sprintf("job-%d", i), m, cfg, topo, alloc, cur, p)
		if got := c.Len(); got > 8 {
			t.Fatalf("insert %d: Len() = %d exceeds cap 8", i, got)
		}
	}

	// Stamp one entry against worker 0, fail a worker-0 device, then
	// overflow the cap: the newest insert survives, the stale entry
	// misses.
	c2 := NewCache()
	c2.cap = 4
	topo2 := cluster.OnPrem16()
	w0 := topo2.FirstN(4)
	c2.ScorePlacementFor("stale", m, cfg, topo2, w0, Pricer{}, p)
	topo2.MarkFailed(w0[0])
	fresh := cluster.Allocation{4, 5, 6, 7}
	var lastCur Pricer
	for i := 0; i < 6; i++ {
		lastCur = Pricer{Source: i, From: cluster.Allocation{cluster.DeviceID(8 + i)}}
		c2.ScorePlacementFor("filler", m, cfg, topo2, fresh, lastCur, p)
	}
	if got := c2.Len(); got > 4 {
		t.Fatalf("Len() = %d exceeds cap 4", got)
	}
	hitsBefore, _ := c2.Stats()
	c2.ScorePlacementFor("filler", m, cfg, topo2, fresh, lastCur, p)
	if hits, _ := c2.Stats(); hits != hitsBefore+1 {
		t.Fatal("newest entry did not survive eviction")
	}
	_, missesBefore := c2.Stats()
	c2.ScorePlacementFor("stale", m, cfg, topo2, w0, Pricer{}, p)
	if _, misses := c2.Stats(); misses != missesBefore+1 {
		t.Fatal("stale entry served after its worker's epoch moved")
	}
}

// TestCacheClearsPastCap: an insert of a new key into a full cache
// clears both maps and then inserts, so the newest entry hits and every
// earlier one misses; replacing a stale entry in place clears nothing,
// and a stale entry misses before a clear and after one.
func TestCacheClearsPastCap(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	topo := cluster.OnPrem16()
	p := DefaultParams()
	p.DeviceMemGB = 0
	cfg := parallel.Config{TP: 1, PP: 2, DP: 2}
	w0, w1 := topo.FirstN(4), cluster.Allocation{4, 5, 6, 7}
	c := NewCache()
	c.cap = 4
	hit := func(what string, query func(), want bool) {
		t.Helper()
		hits, _ := c.Stats()
		query()
		if got, _ := c.Stats(); (got == hits+1) != want {
			t.Fatalf("%s: hit %v, want %v", what, got == hits+1, want)
		}
	}
	stale := func() { c.ScorePlacementFor("", m, cfg, topo, w0, Pricer{}, p) }
	stale()
	for n := 1; n <= 2; n++ {
		c.Best(m, topo, n, p) //nolint:errcheck // infeasible counts are cached like feasible ones
	}
	c.ScorePlacementFor("", m, cfg, topo, w1, Pricer{}, p)
	if got := c.Len(); got != 4 {
		t.Fatalf("Len() = %d, want a full cache of 4", got)
	}
	topo.MarkFailed(w0[0]) // the first entry goes stale; nothing else does
	hit("stale entry in a full cache", stale, false)
	if got := c.Len(); got != 4 {
		t.Fatalf("Len() = %d after a stale entry was replaced in place, want 4", got)
	}
	c.Best(m, topo, 3, p) //nolint:errcheck
	if got := c.Len(); got != 1 {
		t.Fatalf("Len() = %d after an insert past the cap, want only the new entry", got)
	}
	hit("newest entry", func() { c.Best(m, topo, 3, p) }, true)               //nolint:errcheck
	hit("cleared entry", func() { c.Best(m, topo, 1, p) }, false)             //nolint:errcheck
	topo.MarkFailed(w0[1])                                                    // worker 0 again, which the newest entry was priced on
	hit("stale entry after a clear", func() { c.Best(m, topo, 3, p) }, false) //nolint:errcheck
}
