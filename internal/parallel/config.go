// Package parallel generates multi-dimensional parallelization
// configurations: which (tensor, pipeline, data)-parallel degree a job
// uses and how model state maps onto devices under it. It plays the role
// of the model parallelizer in the paper's architecture (Megatron-LM /
// Alpa / DeepSpeed): Tenplex asks it for a configuration and receives
// the per-rank model structure from which a PTC is built (§5.1).
package parallel

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
)

// Config is a multi-dimensional parallelization configuration: the
// degrees of tensor (TP), pipeline (PP) and data (DP) parallelism. A job
// uses TP·PP·DP devices.
type Config struct {
	TP, PP, DP int
}

// WorldSize returns the number of devices the configuration occupies.
func (c Config) WorldSize() int { return c.TP * c.PP * c.DP }

// Validate checks the configuration against a device count and model.
func (c Config) Validate(nDevices int, m *model.Model) error {
	if c.TP < 1 || c.PP < 1 || c.DP < 1 {
		return fmt.Errorf("parallel: degrees must be >= 1, got %v", c)
	}
	if c.WorldSize() != nDevices {
		return fmt.Errorf("parallel: %v needs %d devices, allocation has %d", c, c.WorldSize(), nDevices)
	}
	if m != nil && c.PP > len(m.Layers) {
		return fmt.Errorf("parallel: PP=%d exceeds %d model layers", c.PP, len(m.Layers))
	}
	return nil
}

// String renders the configuration in the paper's (T, P, D) notation.
func (c Config) String() string { return fmt.Sprintf("(T=%d,P=%d,D=%d)", c.TP, c.PP, c.DP) }

// Rank is a position in the three-dimensional parallelism grid.
type Rank struct {
	DP, PP, TP int
}

// RankIndex linearizes a rank. TP varies fastest, then PP, then DP —
// Megatron-LM's default order, which places tensor-parallel groups on
// consecutive devices (and therefore, with compact allocations, on
// NVLink-connected GPUs of the same worker).
func (c Config) RankIndex(r Rank) int {
	if r.DP < 0 || r.DP >= c.DP || r.PP < 0 || r.PP >= c.PP || r.TP < 0 || r.TP >= c.TP {
		panic(fmt.Sprintf("parallel: rank %+v out of range for %v", r, c))
	}
	return (r.DP*c.PP+r.PP)*c.TP + r.TP
}

// DeviceFor maps a rank to a device of the allocation.
func (c Config) DeviceFor(alloc cluster.Allocation, r Rank) cluster.DeviceID {
	return alloc[c.RankIndex(r)]
}

// TPGroup returns the devices of one tensor-parallel group (fixed dp,
// pp), in tp order. These devices all-reduce activations every layer.
func (c Config) TPGroup(alloc cluster.Allocation, dp, pp int) []cluster.DeviceID {
	out := make([]cluster.DeviceID, c.TP)
	for tp := 0; tp < c.TP; tp++ {
		out[tp] = c.DeviceFor(alloc, Rank{DP: dp, PP: pp, TP: tp})
	}
	return out
}

// DPGroup returns the devices of one data-parallel group (fixed pp, tp),
// in dp order. These devices all-reduce gradients every step.
func (c Config) DPGroup(alloc cluster.Allocation, pp, tp int) []cluster.DeviceID {
	out := make([]cluster.DeviceID, c.DP)
	for dp := 0; dp < c.DP; dp++ {
		out[dp] = c.DeviceFor(alloc, Rank{DP: dp, PP: pp, TP: tp})
	}
	return out
}

// PPNeighbors returns the devices of one pipeline (fixed dp, tp), in
// stage order. Consecutive entries exchange activations.
func (c Config) PPNeighbors(alloc cluster.Allocation, dp, tp int) []cluster.DeviceID {
	out := make([]cluster.DeviceID, c.PP)
	for pp := 0; pp < c.PP; pp++ {
		out[pp] = c.DeviceFor(alloc, Rank{DP: dp, PP: pp, TP: tp})
	}
	return out
}

// Enumerate lists every configuration with TP·PP·DP == n, TP and PP
// restricted to powers of two (Megatron's constraint), TP ≤ maxTP and
// PP ≤ maxPP. It reproduces the configuration sweep of Fig. 3.
func Enumerate(n, maxTP, maxPP int) []Config {
	var out []Config
	for tp := 1; tp <= n && tp <= maxTP; tp *= 2 {
		for pp := 1; tp*pp <= n && pp <= maxPP; pp *= 2 {
			if n%(tp*pp) != 0 {
				continue
			}
			out = append(out, Config{TP: tp, PP: pp, DP: n / (tp * pp)})
		}
	}
	return out
}

// PartitionStages cuts the model's layer list into pp contiguous stages,
// minimizing the maximum per-stage FLOPs (balanced pipeline). It returns
// per-stage [start, end) layer-index ranges.
func PartitionStages(m *model.Model, pp int) [][2]int {
	n := len(m.Layers)
	if pp < 1 || pp > n {
		panic(fmt.Sprintf("parallel: cannot cut %d layers into %d stages", n, pp))
	}
	cost := make([]float64, n)
	for i, l := range m.Layers {
		cost[i] = l.FLOPsPerSample
		if cost[i] <= 0 {
			cost[i] = 1 // layers with no estimate still occupy a slot
		}
	}
	prefix := make([]float64, n+1)
	for i := 0; i < n; i++ {
		prefix[i+1] = prefix[i] + cost[i]
	}
	rangeCost := func(a, b int) float64 { return prefix[b] - prefix[a] }

	const inf = 1e300
	// dp[k][i]: minimal max-stage cost cutting the first i layers into k
	// stages; cut[k][i]: position of the last cut.
	dp := make([][]float64, pp+1)
	cut := make([][]int, pp+1)
	for k := 0; k <= pp; k++ {
		dp[k] = make([]float64, n+1)
		cut[k] = make([]int, n+1)
		for i := range dp[k] {
			dp[k][i] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= pp; k++ {
		for i := k; i <= n; i++ {
			for j := k - 1; j < i; j++ {
				c := dp[k-1][j]
				if rc := rangeCost(j, i); rc > c {
					c = rc
				}
				if c < dp[k][i] {
					dp[k][i] = c
					cut[k][i] = j
				}
			}
		}
	}
	out := make([][2]int, pp)
	end := n
	for k := pp; k >= 1; k-- {
		start := cut[k][end]
		out[k-1] = [2]int{start, end}
		end = start
	}
	return out
}
