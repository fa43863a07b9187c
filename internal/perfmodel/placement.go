package perfmodel

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
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
//   - the migration price of getting the job's state there. perfmodel
//     does not model it: the caller's Pricer plans the change it would
//     commit for the candidate and prices that plan, so a placement is
//     chosen on exactly what the reconfiguration will move.
//
// The combined Score amortizes the one-time migration over the
// placement horizon: Score = SamplesSec · H / (H + Migration.Sec).

// DefaultPlacementHorizonSec amortizes migration cost into a placement
// score when Params.PlacementHorizonSec is zero: a placement is assumed
// to live ~10 minutes before the cluster reshuffles again (the Philly
// median inter-arrival regime the coordinator simulates).
const DefaultPlacementHorizonSec = 600

// Migration is what moving a job's state onto a candidate costs, as its
// Pricer priced it: the seconds and the bytes moved off their device by
// the change the caller would commit, and that change itself, which
// perfmodel hands back with the score without looking inside.
type Migration struct {
	Sec   float64
	Bytes int64
	Plan  any
}

// Pricer prices moving one job's state from one source onto candidate
// placements. Source identifies that state and keys the Cache's memo of
// the price, so it must be comparable, and Pricers with equal Sources
// must price alike; From lists the devices the state is read from, whose
// workers stamp the memo. A nil Price prices every candidate as free: an
// initial placement, whose state is generated in place. A Price error
// makes the candidate infeasible.
type Pricer struct {
	Source any
	From   cluster.Allocation
	Price  func(cfg parallel.Config, alloc cluster.Allocation) (Migration, error)
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
	Migration  Migration
	// Score is SamplesSec discounted by migration amortized over the
	// placement horizon. Higher is better.
	Score float64
}

// rate is the throughput half of a score: cfg on exactly alloc, which
// must hold no failed device.
func rate(m *model.Model, cfg parallel.Config, topo *cluster.Topology, alloc cluster.Allocation, p Params) PlacementScore {
	for _, d := range alloc {
		if topo.FailedDevice(d) {
			return PlacementScore{Config: cfg, Reason: fmt.Sprintf("device %d is failed", d)}
		}
	}
	est := Throughput(m, cfg, topo, alloc, p)
	if !est.Feasible {
		return PlacementScore{Config: cfg, Reason: est.Reason}
	}
	return PlacementScore{Config: cfg, Feasible: true, SamplesSec: est.SamplesSec, IterSec: est.IterSec}
}

// price completes a feasible rated score with pr's migration onto alloc.
func (ps PlacementScore) price(pr Pricer, alloc cluster.Allocation, p Params) PlacementScore {
	if pr.Price != nil {
		mig, err := pr.Price(ps.Config, alloc)
		if err != nil {
			return PlacementScore{Config: ps.Config, Reason: err.Error()}
		}
		ps.Migration = mig
	}
	horizon := p.PlacementHorizonSec
	if horizon <= 0 {
		horizon = DefaultPlacementHorizonSec
	}
	ps.Score = ps.SamplesSec * horizon / (horizon + ps.Migration.Sec)
	return ps
}

// ScorePlacement evaluates one concrete candidate device set for a job:
// the throughput of cfg laid out on exactly those devices (TP-group
// locality, worst pipeline and DP links between the actual GPUs), plus
// pr's price for migrating the job's state onto them. Candidates
// containing a failed device are infeasible, and are not priced.
func ScorePlacement(m *model.Model, cfg parallel.Config, topo *cluster.Topology,
	alloc cluster.Allocation, pr Pricer, p Params) PlacementScore {
	ps := rate(m, cfg, topo, alloc, p)
	if !ps.Feasible {
		return ps
	}
	return ps.price(pr, alloc, p)
}

// cheapestRateFloor bounds how much steady-state throughput a forced
// reshape may sacrifice for a cheaper move: CheapestPlacement only
// considers configurations at least this fraction as fast as the best
// one on the same device set, and prices only those. Without the floor,
// a pathological layout (tensor parallelism across NICs) that happens
// to move little could strand the job on it.
const cheapestRateFloor = 0.5

// CheapestPlacement returns the feasible configuration whose migration
// onto alloc, as pr prices it, moves the fewest bytes, considering only
// configurations within cheapestRateFloor of the set's best modeled
// throughput; ties break towards the higher throughput and then the
// earlier enumerated configuration. It is the reshape a preempted or
// failure-struck job should take: the job gains nothing from a forced
// change, so minimal disruption — not maximal steady-state rate — is the
// objective. (Voluntary growth is the opposite case: there the rate is
// the objective.)
func CheapestPlacement(m *model.Model, topo *cluster.Topology, alloc cluster.Allocation,
	pr Pricer, p Params) (PlacementScore, error) {
	n := len(alloc)
	if n == 0 {
		return PlacementScore{}, fmt.Errorf("perfmodel: empty candidate allocation")
	}
	var rated []PlacementScore
	bestRate := 0.0
	for _, cfg := range parallel.Enumerate(n, n, 8) {
		if ps := rate(m, cfg, topo, alloc, p); ps.Feasible {
			rated = append(rated, ps)
			bestRate = max(bestRate, ps.SamplesSec)
		}
	}
	var best PlacementScore
	for _, ps := range rated {
		if ps.SamplesSec < cheapestRateFloor*bestRate {
			continue
		}
		if ps = ps.price(pr, alloc, p); ps.Feasible && (!best.Feasible || ps.Migration.Bytes < best.Migration.Bytes ||
			(ps.Migration.Bytes == best.Migration.Bytes && ps.SamplesSec > best.SamplesSec)) {
			best = ps
		}
	}
	if !best.Feasible {
		return PlacementScore{}, fmt.Errorf("perfmodel: no feasible configuration for allocation %v", alloc)
	}
	return best, nil
}
