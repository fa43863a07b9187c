// Package dataset holds the dataset state of the PTC (§5.2) that a job
// carries across reconfigurations: a Cursor (seed, epoch, samples
// consumed) and the deterministic per-epoch sample order it cuts global
// batches from.
//
// Consistency model (§2.3): the per-epoch sample order is a pure
// function of (seed, epoch). Rank r of a DP-d job consumes, from global
// batch k of size B, the slice order[k·B + r·B/d : k·B + (r+1)·B/d].
// A reconfiguration at a step boundary re-partitions only the suffix of
// the epoch order, so every sample of the epoch is still consumed
// exactly once, in the same global order, regardless of how often d
// changes.
package dataset

import (
	"fmt"
	"math/rand"
)

// EpochOrder returns the deterministic sample order for an epoch: a
// Fisher–Yates shuffle keyed by (seed, epoch). Identical inputs produce
// identical orders on every worker, which is what makes re-partitioning
// consistent without coordination.
func EpochOrder(seed int64, epoch, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// Cursor tracks a job's position in the dataset state: which epoch it
// is in and how many samples of the epoch's order have been consumed.
// It is part of the PTC (the iterator of §4.1) and survives
// reconfigurations unchanged.
type Cursor struct {
	Seed     int64
	Epoch    int
	Consumed int // samples of the current epoch already used
}

// Shard is the per-rank slice of one global batch.
type Shard struct {
	Rank    int
	Samples []int // sample IDs
}

// NextBatch returns the per-rank shards of the next global batch of
// size globalBatch under data parallelism dp, and advances the cursor.
// The batch is cut from the epoch order at the cursor; when fewer than
// globalBatch samples remain the epoch wraps (the remainder is dropped,
// as DL systems do with drop_last). globalBatch must divide by dp.
func (c *Cursor) NextBatch(n, globalBatch, dp int) []Shard {
	if globalBatch%dp != 0 {
		panic(fmt.Sprintf("dataset: global batch %d not divisible by dp %d", globalBatch, dp))
	}
	if globalBatch > n {
		panic(fmt.Sprintf("dataset: global batch %d exceeds dataset %d", globalBatch, n))
	}
	if c.Consumed+globalBatch > n {
		c.Epoch++
		c.Consumed = 0
	}
	order := EpochOrder(c.Seed, c.Epoch, n)
	local := globalBatch / dp
	shards := make([]Shard, dp)
	for r := 0; r < dp; r++ {
		lo := c.Consumed + r*local
		shards[r] = Shard{
			Rank:    r,
			Samples: append([]int(nil), order[lo:lo+local]...),
		}
	}
	c.Consumed += globalBatch
	return shards
}
