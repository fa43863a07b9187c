package perfmodel

import (
	"fmt"
	"sync"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

func TestCacheBestMatchesBest(t *testing.T) {
	m := model.GPT3XL()
	topo := cluster.OnPrem16()
	p := DefaultParams()
	c := NewCache()
	for _, n := range []int{4, 8, 16, 8, 4, 16} {
		want, werr := Best(m, topo, n, p)
		got, gerr := c.Best(m, topo, n, p)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("n=%d: err %v vs %v", n, gerr, werr)
		}
		if got.Config != want.Config || got.SamplesSec != want.SamplesSec {
			t.Fatalf("n=%d: cached %+v, direct %+v", n, got.Config, want.Config)
		}
	}
	hits, misses := c.Stats()
	if misses != 3 || hits != 3 {
		t.Fatalf("hits=%d misses=%d, want 3/3", hits, misses)
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d keys, want 3", c.Len())
	}
}

func TestCacheBestCachesErrors(t *testing.T) {
	m := model.GPT3_6B7() // needs several devices to fit in memory
	topo := cluster.OnPrem16()
	c := NewCache()
	if _, err := c.Best(m, topo, 1, DefaultParams()); err == nil {
		t.Skip("1-device placement unexpectedly feasible")
	}
	if _, err := c.Best(m, topo, 1, DefaultParams()); err == nil {
		t.Fatal("cached error lost")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheDistinguishesParams(t *testing.T) {
	m := model.GPT3XL()
	topo := cluster.OnPrem16()
	c := NewCache()
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.GlobalBatch = 256
	if _, err := c.Best(m, topo, 16, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Best(m, topo, 16, p2); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Fatalf("params change did not miss: %d misses", misses)
	}
}

func TestCacheConcurrent(t *testing.T) {
	m := model.GPT3XL()
	topo := cluster.OnPrem16()
	p := DefaultParams()
	c := NewCache()
	want, err := Best(m, topo, 16, p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := c.Best(m, topo, 16, p)
				if err != nil || got.Config != want.Config {
					t.Errorf("concurrent Best: %+v, %v", got.Config, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkCacheBestHit measures the coordinator's steady-state
// placement query: the sweep already memoized, only the map lookup
// remains.
func BenchmarkCacheBestHit(b *testing.B) {
	m := model.GPT3XL()
	topo := cluster.OnPrem16()
	p := DefaultParams()
	c := NewCache()
	if _, err := c.Best(m, topo, 16, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Best(m, topo, 16, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestUncached is the baseline the cache short-circuits: a
// full enumerate-and-price sweep per query.
func BenchmarkBestUncached(b *testing.B) {
	m := model.GPT3XL()
	topo := cluster.OnPrem16()
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Best(m, topo, 16, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCacheInvalidatedByTopologyGeneration is the regression test for
// the fail-stop staleness bug: cache keys used to ignore topology
// mutations, so a placement scored before a device failure kept being
// served after it. Marking a device failed bumps the topology
// generation, which must invalidate cached entries.
func TestCacheInvalidatedByTopologyGeneration(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	topo := cluster.OnPrem16()
	p := DefaultParams()
	p.DeviceMemGB = 0
	c := NewCache()
	alloc := topo.FirstN(4)
	cfg := parallel.Config{TP: 1, PP: 2, DP: 2}
	before := c.ScorePlacementFor("", m, cfg, topo, alloc, Pricer{}, p)
	if !before.Feasible {
		t.Fatalf("healthy placement infeasible: %s", before.Reason)
	}
	// Warm the count-based side too.
	if _, err := c.Best(m, topo, 4, p); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := c.Stats()

	topo.MarkFailed(alloc[0])

	after := c.ScorePlacementFor("", m, cfg, topo, alloc, Pricer{}, p)
	if after.Feasible {
		t.Fatal("cache served the pre-failure placement score after the device was marked failed")
	}
	if _, err := c.Best(m, topo, 4, p); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != missesBefore+2 {
		t.Fatalf("generation bump did not miss: %d misses before, %d after", missesBefore, misses)
	}
	// The post-failure entries are cached under the new generation.
	hitsBefore, _ := c.Stats()
	c.ScorePlacementFor("", m, cfg, topo, alloc, Pricer{}, p)
	if hits, _ := c.Stats(); hits != hitsBefore+1 {
		t.Fatal("post-failure score not served from cache")
	}
}

// TestCacheCheapestPlacement: the forced-reshape sweep is memoized with
// the plan it priced, so a hit plans nothing, and an infeasible sweep
// caches its error.
func TestCacheCheapestPlacement(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	topo := cluster.OnPrem16()
	p := DefaultParams()
	p.DeviceMemGB = 0
	c := NewCache()
	pr := planPricer(m, topo, parallel.Config{TP: 1, PP: 4, DP: 2}, topo.FirstN(8))
	plan := pr.Price
	priced := 0
	pr.Price = func(cfg parallel.Config, alloc cluster.Allocation) (Migration, error) {
		priced++
		return plan(cfg, alloc)
	}
	a, err := c.CheapestPlacementFor("", m, topo, topo.FirstN(4), pr, p)
	if err != nil {
		t.Fatal(err)
	}
	first := priced
	b, err := c.CheapestPlacementFor("", m, topo, topo.FirstN(4), pr, p)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.Migration.Plan == nil || priced != first {
		t.Fatalf("memoized cheapest placement differs or planned again (%d plans, then %d): %+v vs %+v", first, priced, a, b)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	refuse := Pricer{Source: "refuse", Price: func(parallel.Config, cluster.Allocation) (Migration, error) {
		return Migration{}, fmt.Errorf("no plan")
	}}
	for i := 0; i < 2; i++ {
		if _, err := c.CheapestPlacementFor("", m, topo, topo.FirstN(4), refuse, p); err == nil {
			t.Fatal("a sweep with no priceable configuration succeeded")
		}
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("hits=%d misses=%d after the refused sweep twice, want 2/2", hits, misses)
	}
}
