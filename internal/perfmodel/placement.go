package perfmodel

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/netsim"
	"tenplex/internal/parallel"
)

// This file is the allocation-aware half of the performance model: where
// Best/Sweep answer "what is the best (T, P, D) for n devices", assuming
// the scheduler's compact default placement, ScorePlacement answers "how
// good is THIS concrete device set" — the quantity the paper's central
// claim turns on: reconfiguration cost and steady-state throughput both
// depend on which devices a job holds, not just how many (§2, Fig. 3).
//
// A placement score combines two terms:
//
//   - the modeled training throughput of the configuration on the
//     concrete allocation (Throughput already prices TP-group locality,
//     pipeline boundary links and DP-ring worst links on the actual
//     topology links between the actual devices);
//   - a migration cost: the netsim-priced transfers that moving the
//     job's resident state from its current placement onto the
//     candidate would require. The model is layout-aware: under
//     (T, P, D) every device holds a 1/(T·P) shard of the state (data
//     parallelism replicates it), so growing DP means hauling full
//     shard copies to the new replicas while growing PP only re-shards
//     — exactly why the paper finds pipeline reconfiguration cheaper
//     than replication (Fig. 15).
//
// The combined Score amortizes the one-time migration over the
// placement horizon: Score = SamplesSec · H / (H + MigrationSec).
// Multiplying every link bandwidth by k > 0 leaves MigrationBytes
// untouched, scales MigrationSec by exactly 1/k, and never flips the
// SamplesSec ranking of two candidates sharing a configuration — the
// scale-invariance the property tests pin down.

// DefaultPlacementHorizonSec amortizes migration cost into a placement
// score when Params.PlacementHorizonSec is zero: a placement is assumed
// to live ~10 minutes before the cluster reshuffles again (the Philly
// median inter-arrival regime the coordinator simulates).
const DefaultPlacementHorizonSec = 600

// Placement names a concrete layout: which devices a job holds and the
// configuration laid out on them. The zero Config means the layout is
// unknown and the state is assumed evenly sharded over the devices.
type Placement struct {
	Alloc  cluster.Allocation
	Config parallel.Config
}

// PlacementScore is the evaluation of one concrete candidate device
// set for a job.
type PlacementScore struct {
	Config   parallel.Config
	Feasible bool
	Reason   string // why infeasible, when Feasible is false

	// SamplesSec and IterSec are the throughput estimate on the
	// concrete allocation (not the compact default).
	SamplesSec float64
	IterSec    float64
	// MigrationSec is the netsim-priced time to move the resident state
	// from the current placement onto the candidate; MigrationBytes is
	// the payload that crosses a device boundary doing so.
	MigrationSec   float64
	MigrationBytes int64
	// Score is SamplesSec discounted by migration amortized over the
	// placement horizon. Higher is better.
	Score float64
}

// shardBytes returns the per-device resident state bytes under a
// placement: a 1/(TP·PP) shard of the full state when the layout is
// known (every DP replica holds a full copy of its shard; a degraded
// allocation — fewer devices than the configuration's world size after
// a failure — keeps the surviving shards' size), an even 1/n split
// when it is not.
func shardBytes(total int64, p Placement) int64 {
	c := p.Config
	if c.TP >= 1 && c.PP >= 1 && c.DP >= 1 && c.WorldSize() >= len(p.Alloc) {
		return total / int64(c.TP*c.PP)
	}
	if len(p.Alloc) == 0 {
		return 0
	}
	return total / int64(len(p.Alloc))
}

// MigrationCost prices moving a job's resident training state from one
// placement to another on the topology. Every destination device needs
// its target shard; bytes it already holds (it was part of the source
// placement) are free, the rest stream in from the source devices,
// round-robin in device order, and the resulting transfers are priced
// as concurrent netsim flows. An empty source (initial placement:
// state materializes in place) costs zero; shrinking data parallelism
// costs zero too (surviving replicas already hold everything), while
// growing it hauls full shard copies to the new replicas.
func MigrationCost(m *model.Model, topo *cluster.Topology, from, to Placement, p Params) (float64, int64) {
	if len(from.Alloc) == 0 || len(to.Alloc) == 0 {
		return 0, 0
	}
	bpp := p.StateBytesPerParam
	if bpp == 0 {
		bpp = 16
	}
	total := m.NumParams() * int64(bpp)
	perFrom := shardBytes(total, from)
	perTo := shardBytes(total, to)
	// Under an unchanged configuration the planner identity-maps every
	// surviving device's shard (core.AlignDevices), so only devices new
	// to the allocation pay; a same-size shard under a DIFFERENT
	// configuration is different bytes and still re-shards.
	sameCfg := from.Config == to.Config && from.Config.TP >= 1

	held := map[cluster.DeviceID]bool{}
	for _, d := range from.Alloc {
		held[d] = true
	}
	var flows []netsim.Flow
	var moved int64
	src := 0
	for _, d := range to.Alloc {
		need := perTo
		if held[d] {
			if sameCfg {
				need = 0
			} else if perFrom > 0 {
				need -= perFrom
			}
		}
		if need <= 0 {
			continue
		}
		// Stream the missing bytes from the source devices, skipping
		// the receiver itself (local bytes are free).
		for need > 0 {
			s := from.Alloc[src%len(from.Alloc)]
			src++
			if s == d && len(from.Alloc) > 1 {
				s = from.Alloc[src%len(from.Alloc)]
				src++
			}
			if s == d {
				break // single-device source == receiver: nothing to move
			}
			b := need
			if b > perFrom && perFrom > 0 {
				b = perFrom
			}
			flows = append(flows, netsim.Flow{From: netsim.DevEP(s), To: netsim.DevEP(d), Bytes: b})
			moved += b
			need -= b
		}
	}
	if len(flows) == 0 {
		return 0, 0
	}
	return netsim.Simulate(topo, flows).Seconds, moved
}

// ScorePlacement evaluates one concrete candidate device set for a job:
// the throughput of cfg laid out on exactly those devices (TP-group
// locality, worst pipeline and DP links between the actual GPUs), plus
// the netsim-priced cost of migrating the job's state from its current
// placement onto the candidate. cur may be the zero Placement for an
// initial placement. Candidates containing a failed device are
// infeasible.
func ScorePlacement(m *model.Model, cfg parallel.Config, topo *cluster.Topology,
	alloc cluster.Allocation, cur Placement, p Params) PlacementScore {
	for _, d := range alloc {
		if topo.FailedDevice(d) {
			return PlacementScore{Config: cfg, Reason: fmt.Sprintf("device %d is failed", d)}
		}
	}
	est := Throughput(m, cfg, topo, alloc, p)
	if !est.Feasible {
		return PlacementScore{Config: cfg, Reason: est.Reason}
	}
	migSec, migBytes := MigrationCost(m, topo, cur, Placement{Alloc: alloc, Config: cfg}, p)
	horizon := p.PlacementHorizonSec
	if horizon <= 0 {
		horizon = DefaultPlacementHorizonSec
	}
	return PlacementScore{
		Config:         cfg,
		Feasible:       true,
		SamplesSec:     est.SamplesSec,
		IterSec:        est.IterSec,
		MigrationSec:   migSec,
		MigrationBytes: migBytes,
		Score:          est.SamplesSec * horizon / (horizon + migSec),
	}
}

// cheapestRateFloor bounds how much steady-state throughput a forced
// reshape may sacrifice for a cheaper move: CheapestPlacement only
// considers configurations at least this fraction as fast as the best
// one on the same device set. Without the floor, the size-only shard
// model can rate a pathological layout (tensor parallelism across
// NICs) as "free" and strand the job on it.
const cheapestRateFloor = 0.5

// CheapestPlacement returns the feasible configuration that moves the
// least state from cur onto alloc, considering only configurations
// within cheapestRateFloor of the set's best modeled throughput; ties
// break towards the higher throughput and then the earlier enumerated
// configuration. It is the reshape a preempted or failure-struck job
// should take: the job gains nothing from a forced change, so minimal
// disruption — not maximal steady-state rate — is the objective.
// (Voluntary growth is the opposite case: there the rate is the
// objective.)
func CheapestPlacement(m *model.Model, topo *cluster.Topology, alloc cluster.Allocation,
	cur Placement, p Params) (PlacementScore, error) {
	n := len(alloc)
	if n == 0 {
		return PlacementScore{}, fmt.Errorf("perfmodel: empty candidate allocation")
	}
	var scored []PlacementScore
	bestRate := 0.0
	for _, cfg := range parallel.Enumerate(n, n, 8) {
		ps := ScorePlacement(m, cfg, topo, alloc, cur, p)
		if !ps.Feasible {
			continue
		}
		scored = append(scored, ps)
		if ps.SamplesSec > bestRate {
			bestRate = ps.SamplesSec
		}
	}
	if len(scored) == 0 {
		return PlacementScore{}, fmt.Errorf("perfmodel: no feasible configuration for allocation %v", alloc)
	}
	var best PlacementScore
	found := false
	for _, ps := range scored {
		if ps.SamplesSec < cheapestRateFloor*bestRate {
			continue
		}
		if !found || ps.MigrationBytes < best.MigrationBytes ||
			(ps.MigrationBytes == best.MigrationBytes && ps.SamplesSec > best.SamplesSec) {
			best, found = ps, true
		}
	}
	return best, nil
}
