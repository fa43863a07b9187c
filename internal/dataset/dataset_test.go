package dataset

import (
	"testing"
	"testing/quick"
)

func TestEpochOrderDeterministicAndComplete(t *testing.T) {
	a := EpochOrder(42, 3, 1000)
	b := EpochOrder(42, 3, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("epoch order not deterministic")
		}
	}
	c := EpochOrder(42, 4, 1000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different epochs produce identical order")
	}
	seen := map[int]bool{}
	for _, id := range a {
		if seen[id] {
			t.Fatal("duplicate in epoch order")
		}
		seen[id] = true
	}
	if len(seen) != 1000 {
		t.Fatal("epoch order incomplete")
	}
}

func TestNextBatchExactlyOnce(t *testing.T) {
	const n, gb = 64, 8
	c := Cursor{Seed: 5}
	seen := map[int]int{}
	for step := 0; step < n/gb; step++ {
		shards := c.NextBatch(n, gb, 4)
		if len(shards) != 4 {
			t.Fatalf("%d shards", len(shards))
		}
		for _, s := range shards {
			if len(s.Samples) != 2 {
				t.Fatalf("shard size %d", len(s.Samples))
			}
			for _, id := range s.Samples {
				seen[id]++
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("consumed %d distinct samples, want %d", len(seen), n)
	}
	for id, k := range seen {
		if k != 1 {
			t.Fatalf("sample %d consumed %d times", id, k)
		}
	}
	if c.Epoch != 0 || c.Consumed != n {
		t.Fatalf("cursor = %+v", c)
	}
	// Next batch wraps into epoch 1.
	_ = c.NextBatch(n, gb, 4)
	if c.Epoch != 1 || c.Consumed != gb {
		t.Fatalf("cursor after wrap = %+v", c)
	}
}

// TestRepartitionPreservesGlobalOrder is the Fig. 2a property: changing
// DP mid-epoch must not change which samples are consumed or their
// global order.
func TestRepartitionPreservesGlobalOrder(t *testing.T) {
	const n, gb = 240, 12
	collect := func(dpSchedule []int) []int {
		c := Cursor{Seed: 9}
		var consumed []int
		for _, dp := range dpSchedule {
			shards := c.NextBatch(n, gb, dp)
			// Global order of the batch: rank 0's slice, rank 1's, ...
			for _, s := range shards {
				consumed = append(consumed, s.Samples...)
			}
		}
		return consumed
	}
	static := collect([]int{2, 2, 2, 2, 2, 2})
	dynamic := collect([]int{2, 2, 4, 4, 6, 1})
	if len(static) != len(dynamic) {
		t.Fatalf("lengths differ: %d vs %d", len(static), len(dynamic))
	}
	for i := range static {
		if static[i] != dynamic[i] {
			t.Fatalf("global order diverges at %d: %d vs %d", i, static[i], dynamic[i])
		}
	}
}

func TestNextBatchPanics(t *testing.T) {
	c := Cursor{}
	for name, f := range map[string]func(){
		"indivisible": func() { c.NextBatch(100, 10, 3) },
		"too big":     func() { c.NextBatch(8, 16, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestExactlyOnceQuick(t *testing.T) {
	// Property: any DP schedule consumes each sample at most once per
	// epoch and the union over one full epoch is complete.
	f := func(seed int64, sched []uint8) bool {
		const n, gb = 48, 8
		c := Cursor{Seed: seed}
		seen := map[int]bool{}
		steps := 0
		for _, s := range sched {
			if steps >= n/gb {
				break
			}
			dp := []int{1, 2, 4, 8}[s%4]
			for _, sh := range c.NextBatch(n, gb, dp) {
				for _, id := range sh.Samples {
					if seen[id] {
						return false
					}
					seen[id] = true
				}
			}
			steps++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
