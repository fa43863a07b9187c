package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// Property tests for the placement scorer, in the style of the
// planner's TestPlanEquivalence*: randomized topologies, allocations
// and configurations pinning down the invariants the coordinator
// depends on — determinism, bandwidth scale-invariance, and that
// strictly-better-connected device sets never score worse — with the
// migration priced as the coordinator prices it, by the plan it would
// commit.

// planPricer prices a migration from the PTC of (cfg, alloc) by the
// change job.Plan plans for the candidate, on topo; a source the model
// cannot take prices every candidate as infeasible.
func planPricer(m *model.Model, topo *cluster.Topology, cfg parallel.Config, alloc cluster.Allocation) Pricer {
	from, buildErr := parallel.BuildPTC(m, cfg, alloc)
	return Pricer{Source: from, From: alloc, Price: func(c parallel.Config, a cluster.Allocation) (Migration, error) {
		if buildErr != nil {
			return Migration{}, buildErr
		}
		ch, err := job.Plan(m, topo, from, c, a, nil)
		if err != nil {
			return Migration{}, err
		}
		return Migration{Sec: ch.SimSec, Bytes: ch.Stats.MovedBytes, Plan: ch}, nil
	}}
}

// randSource is a random current placement of n devices on topo, as a
// plan pricer.
func randSource(rng *rand.Rand, m *model.Model, topo *cluster.Topology, n int) Pricer {
	cfgs := parallel.Enumerate(n, n, 8)
	return planPricer(m, topo, cfgs[rng.Intn(len(cfgs))], randAlloc(rng, topo, n))
}

// unplanned is s without the opaque plan, which is a fresh pointer per
// pricing.
func unplanned(s PlacementScore) PlacementScore {
	s.Migration.Plan = nil
	return s
}

// randTopo builds a random topology with physically-ordered link
// speeds (NVLink >= PCIe >= Net — every generated cluster satisfies
// the ordering real ones do).
func randTopo(rng *rand.Rand) *cluster.Topology {
	workers := 2 + rng.Intn(4)
	perWorker := 2 + rng.Intn(3)
	net := (1 + 9*rng.Float64()) * 1e9
	pcie := net * (1 + 9*rng.Float64())
	nvlink := pcie * (1 + 9*rng.Float64())
	return cluster.New(fmt.Sprintf("rand-%dx%d", workers, perWorker), workers, perWorker,
		cluster.LinkConfig{
			NVLinkBW:    nvlink,
			NVLinkPairs: rng.Intn(2) == 0,
			PCIeBW:      pcie,
			NetBW:       net,
			NetLatency:  rng.Float64() * 50e-6,
			StorageBW:   net / 2,
			MemCopyBW:   pcie / 2,
			DeviceMemGB: 48,
		})
}

// scaledTopo returns a copy of t with every bandwidth multiplied by k
// and latency zeroed (latency is an additive constant, not a link
// property the scale-invariance statement covers).
func scaledTopo(t *cluster.Topology, k float64) *cluster.Topology {
	s := *t
	s.NVLinkBW *= k
	s.PCIeBW *= k
	s.NetBW *= k
	s.StorageBW *= k
	s.MemCopyBW *= k
	s.NetLatency = 0
	return &s
}

// randAlloc picks n distinct devices in random order.
func randAlloc(rng *rand.Rand, topo *cluster.Topology, n int) cluster.Allocation {
	perm := rng.Perm(topo.NumDevices())
	out := make(cluster.Allocation, n)
	for i := 0; i < n; i++ {
		out[i] = cluster.DeviceID(perm[i])
	}
	return out
}

func placementParams() Params {
	p := DefaultParams()
	p.GlobalBatch = 64
	p.DeviceMemGB = 0
	return p
}

// TestScorePlacementDeterministic: the scorer with the plan price is a
// pure function — identical results across repeated calls, for 240
// randomized (topology, allocation, configuration, current-placement)
// cases.
func TestScorePlacementDeterministic(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	cases := 0
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			topo := randTopo(rng)
			n := 1 + rng.Intn(topo.NumDevices())
			alloc := randAlloc(rng, topo, n)
			cfgs := parallel.Enumerate(n, n, 8)
			cfg := cfgs[rng.Intn(len(cfgs))]
			var pr Pricer
			if rng.Intn(2) == 0 {
				pr = randSource(rng, m, topo, 1+rng.Intn(topo.NumDevices()))
			}
			a := ScorePlacement(m, cfg, topo, alloc, pr, placementParams())
			b := ScorePlacement(m, cfg, topo, alloc, pr, placementParams())
			if unplanned(a) != unplanned(b) {
				t.Fatalf("seed %d trial %d: scorer not deterministic:\n%+v\n%+v", seed, trial, a, b)
			}
			cases++
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases, want >= 200", cases)
	}
}

// TestScorePlacementScaleInvariance: multiplying every link bandwidth
// by k leaves the planned migration bytes untouched, scales its seconds
// by exactly 1/k, and never flips which of two same-configuration
// candidates has the higher throughput — 200 randomized cases.
func TestScorePlacementScaleInvariance(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	cases, moved := 0, 0
	for seed := int64(10); seed < 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 140; trial++ {
			topo := randTopo(rng)
			k := 0.25 + 8*rng.Float64()
			fast := scaledTopo(topo, k)
			slow := scaledTopo(topo, 1) // latency zeroed on both sides
			n := 1 + rng.Intn(topo.NumDevices()-1)
			allocA := randAlloc(rng, topo, n)
			allocB := randAlloc(rng, topo, n)
			cfgs := parallel.Enumerate(n, n, 8)
			cfg := cfgs[rng.Intn(len(cfgs))]
			src := randAlloc(rng, topo, n)

			sA := ScorePlacement(m, cfg, slow, allocA, planPricer(m, slow, cfg, src), placementParams())
			fA := ScorePlacement(m, cfg, fast, allocA, planPricer(m, fast, cfg, src), placementParams())
			if sA.Feasible != fA.Feasible {
				t.Fatalf("seed %d trial %d: feasibility changed under scaling", seed, trial)
			}
			if !sA.Feasible {
				continue
			}
			if sA.Migration.Bytes != fA.Migration.Bytes {
				t.Fatalf("seed %d trial %d: migration bytes %d -> %d under pure bandwidth scaling",
					seed, trial, sA.Migration.Bytes, fA.Migration.Bytes)
			}
			if sA.Migration.Sec > 0 {
				moved++
				ratio := sA.Migration.Sec / fA.Migration.Sec
				if math.Abs(ratio-k) > 1e-6*k {
					t.Fatalf("seed %d trial %d: migration time scaled by %g, want %g", seed, trial, ratio, k)
				}
			}
			// Throughput ranking between two candidates under the same
			// configuration is scale-free: compute is unchanged and every
			// communication term scales by 1/k.
			sB := ScorePlacement(m, cfg, slow, allocB, Pricer{}, placementParams())
			fB := ScorePlacement(m, cfg, fast, allocB, Pricer{}, placementParams())
			if sB.Feasible && (sA.SamplesSec > sB.SamplesSec) != (fA.SamplesSec > fB.SamplesSec) &&
				sA.SamplesSec != sB.SamplesSec {
				t.Fatalf("seed %d trial %d: throughput ranking flipped under bandwidth scaling:\nslow %g vs %g\nfast %g vs %g",
					seed, trial, sA.SamplesSec, sB.SamplesSec, fA.SamplesSec, fB.SamplesSec)
			}
			cases++
		}
	}
	if cases < 150 || moved < 100 {
		t.Fatalf("only %d feasible cases, %d of them moving state, want >= 150 and >= 100", cases, moved)
	}
}

// TestBetterConnectedNeverWorse covers the headline monotonicity
// property from two angles, 240 randomized cases total:
//
//  1. same allocation on a faster topology never scores worse (every
//     communication term, and the planned migration's netsim time, is
//     non-increasing in every bandwidth);
//  2. for communication-bound configurations (DP-only and TP-only,
//     where one group spans the whole allocation), a single-worker
//     device set never scores worse than one spanning workers — the
//     spanning ring includes a NIC link, the compact one only
//     intra-worker links, and PCIe >= Net in every generated topology.
func TestBetterConnectedNeverWorse(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	cases := 0
	for seed := int64(20); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 30; trial++ {
			topo := randTopo(rng)
			n := 1 + rng.Intn(topo.NumDevices())
			alloc := randAlloc(rng, topo, n)
			cfgs := parallel.Enumerate(n, n, 8)
			cfg := cfgs[rng.Intn(len(cfgs))]
			src := randAlloc(rng, topo, n)

			// Angle 1: uplift a random subset of bandwidths.
			up := *topo
			if rng.Intn(2) == 0 {
				up.NVLinkBW *= 1 + 4*rng.Float64()
			}
			if rng.Intn(2) == 0 {
				up.PCIeBW *= 1 + 4*rng.Float64()
			}
			up.NetBW *= 1 + 4*rng.Float64()
			base := ScorePlacement(m, cfg, topo, alloc, planPricer(m, topo, cfg, src), placementParams())
			better := ScorePlacement(m, cfg, &up, alloc, planPricer(m, &up, cfg, src), placementParams())
			if base.Feasible {
				if !better.Feasible {
					t.Fatalf("seed %d trial %d: faster links made placement infeasible", seed, trial)
				}
				if better.Score < base.Score-1e-9*base.Score {
					t.Fatalf("seed %d trial %d: faster links lowered the score: %g -> %g",
						seed, trial, base.Score, better.Score)
				}
			}
			cases++
		}

		// Angle 2: compact vs spanning under whole-allocation groups.
		for trial := 0; trial < 30; trial++ {
			topo := randTopo(rng)
			perWorker := len(topo.Workers[0].Devices)
			if perWorker < 2 {
				continue
			}
			n := 2 + rng.Intn(perWorker-1)
			w := rng.Intn(topo.NumWorkers())
			compact := append(cluster.Allocation(nil), topo.Workers[w].Devices[:n]...)
			// The spanning set keeps one device on worker w and strays
			// the rest over other workers.
			spanning := cluster.Allocation{topo.Workers[w].Devices[0]}
			for i := 0; len(spanning) < n; i++ {
				ww := topo.Workers[(w+1+i)%topo.NumWorkers()]
				spanning = append(spanning, ww.Devices[i%len(ww.Devices)])
			}
			for _, cfg := range []parallel.Config{
				{TP: 1, PP: 1, DP: n},
				{TP: n, PP: 1, DP: 1},
			} {
				sc := ScorePlacement(m, cfg, topo, compact, Pricer{}, placementParams())
				sp := ScorePlacement(m, cfg, topo, spanning, Pricer{}, placementParams())
				if !sc.Feasible || !sp.Feasible {
					continue
				}
				if sc.Score < sp.Score {
					t.Fatalf("seed %d trial %d %v: compact single-worker set scored below the worker-spanning one: %g < %g",
						seed, trial, cfg, sc.Score, sp.Score)
				}
				cases++
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases, want >= 200", cases)
	}
}

// TestCheapestPlacement: the forced-reshape pick moves no more planned
// state than any other configuration within the rate floor, is priced
// only over those, and shedding a data-parallel replica onto the
// devices that hold it moves nothing.
func TestCheapestPlacement(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(4, 16, 2, 32, 8)
	p := placementParams()
	pr := planPricer(m, topo, parallel.Config{TP: 1, PP: 4, DP: 2}, topo.FirstN(8))
	four := topo.FirstN(4)
	got, err := CheapestPlacement(m, topo, four, pr, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config != (parallel.Config{TP: 1, PP: 4, DP: 1}) || got.Migration.Bytes != 0 {
		t.Fatalf("cheapest shrink of (P4,D2)@8 onto its leading replica: %v moving %d B, want the free replica shed (T=1,P=4,D=1)",
			got.Config, got.Migration.Bytes)
	}
	best := 0.0
	for _, cfg := range parallel.Enumerate(4, 4, 8) {
		best = max(best, ScorePlacement(m, cfg, topo, four, Pricer{}, p).SamplesSec)
	}
	priced := 0
	counting := pr
	counting.Price = func(c parallel.Config, a cluster.Allocation) (Migration, error) {
		priced++
		return pr.Price(c, a)
	}
	if _, err := CheapestPlacement(m, topo, four, counting, p); err != nil {
		t.Fatal(err)
	}
	within := 0
	for _, cfg := range parallel.Enumerate(4, 4, 8) {
		ps := ScorePlacement(m, cfg, topo, four, pr, p)
		if !ps.Feasible || ps.SamplesSec < cheapestRateFloor*best {
			continue
		}
		within++
		if ps.Migration.Bytes < got.Migration.Bytes {
			t.Fatalf("%v moves %d B, below the pick's %d B", cfg, ps.Migration.Bytes, got.Migration.Bytes)
		}
	}
	if priced != within {
		t.Fatalf("CheapestPlacement priced %d configurations, want the %d within the rate floor", priced, within)
	}
}

// TestScorePlacementRejectsFailedDevices: a candidate containing a
// fail-stopped device is infeasible, and the marking flows through the
// topology generation.
func TestScorePlacementRejectsFailedDevices(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(4, 16, 2, 32, 8)
	alloc := topo.FirstN(4)
	cfg := parallel.Config{TP: 1, PP: 2, DP: 2}
	before := ScorePlacement(m, cfg, topo, alloc, Pricer{}, placementParams())
	if !before.Feasible {
		t.Fatalf("healthy placement infeasible: %s", before.Reason)
	}
	gen := topo.Generation()
	topo.MarkFailed(alloc[1])
	if topo.Generation() == gen {
		t.Fatal("MarkFailed did not bump the topology generation")
	}
	priced := false
	after := ScorePlacement(m, cfg, topo, alloc, Pricer{Price: func(parallel.Config, cluster.Allocation) (Migration, error) {
		priced = true
		return Migration{}, nil
	}}, placementParams())
	if after.Feasible || priced {
		t.Fatalf("placement on a failed device: feasible %v, priced %v; want neither", after.Feasible, priced)
	}
}
