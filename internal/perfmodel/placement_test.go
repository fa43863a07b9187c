package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// Property tests for the placement scorer, in the style of the
// planner's TestPlanEquivalence*: randomized topologies, allocations
// and configurations pinning down the invariants the coordinator
// depends on — determinism, bandwidth scale-invariance, and that
// strictly-better-connected device sets never score worse.

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

// TestScorePlacementDeterministic: the scorer is a pure function —
// byte-identical results across repeated calls, for 240 randomized
// (topology, allocation, configuration, current-placement) cases.
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
			var cur Placement
			if rng.Intn(2) == 0 && topo.NumDevices() > n {
				curCfgs := parallel.Enumerate(n, n, 8)
				cur = Placement{
					Alloc:  randAlloc(rng, topo, n),
					Config: curCfgs[rng.Intn(len(curCfgs))],
				}
			}
			a := ScorePlacement(m, cfg, topo, alloc, cur, placementParams())
			b := ScorePlacement(m, cfg, topo, alloc, cur, placementParams())
			if a != b {
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
// by k leaves MigrationBytes untouched, scales MigrationSec by exactly
// 1/k, and never flips which of two same-configuration candidates has
// the higher throughput — 200 randomized cases.
func TestScorePlacementScaleInvariance(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 32, 8)
	cases := 0
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
			cur := Placement{Alloc: randAlloc(rng, topo, n), Config: cfg}

			sA := ScorePlacement(m, cfg, slow, allocA, cur, placementParams())
			fA := ScorePlacement(m, cfg, fast, allocA, cur, placementParams())
			if sA.Feasible != fA.Feasible {
				t.Fatalf("seed %d trial %d: feasibility changed under scaling", seed, trial)
			}
			if !sA.Feasible {
				continue
			}
			if sA.MigrationBytes != fA.MigrationBytes {
				t.Fatalf("seed %d trial %d: migration bytes %d -> %d under pure bandwidth scaling",
					seed, trial, sA.MigrationBytes, fA.MigrationBytes)
			}
			if sA.MigrationSec > 0 {
				ratio := sA.MigrationSec / fA.MigrationSec
				if math.Abs(ratio-k) > 1e-6*k {
					t.Fatalf("seed %d trial %d: migration time scaled by %g, want %g", seed, trial, ratio, k)
				}
			}
			// Throughput ranking between two candidates under the same
			// configuration is scale-free: compute is unchanged and every
			// communication term scales by 1/k.
			sB := ScorePlacement(m, cfg, slow, allocB, cur, placementParams())
			fB := ScorePlacement(m, cfg, fast, allocB, cur, placementParams())
			if sB.Feasible && (sA.SamplesSec > sB.SamplesSec) != (fA.SamplesSec > fB.SamplesSec) &&
				sA.SamplesSec != sB.SamplesSec {
				t.Fatalf("seed %d trial %d: throughput ranking flipped under bandwidth scaling:\nslow %g vs %g\nfast %g vs %g",
					seed, trial, sA.SamplesSec, sB.SamplesSec, fA.SamplesSec, fB.SamplesSec)
			}
			cases++
		}
	}
	if cases < 150 {
		t.Fatalf("only %d feasible cases, want >= 150", cases)
	}
}

// TestBetterConnectedNeverWorse covers the headline monotonicity
// property from two angles, 240 randomized cases total:
//
//  1. same allocation on a uniformly faster topology never scores
//     worse (every communication and migration term is non-increasing
//     in every bandwidth);
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
			cur := Placement{Alloc: randAlloc(rng, topo, n), Config: cfg}

			// Angle 1: uplift a random subset of bandwidths.
			up := *topo
			if rng.Intn(2) == 0 {
				up.NVLinkBW *= 1 + 4*rng.Float64()
			}
			if rng.Intn(2) == 0 {
				up.PCIeBW *= 1 + 4*rng.Float64()
			}
			up.NetBW *= 1 + 4*rng.Float64()
			base := ScorePlacement(m, cfg, topo, alloc, cur, placementParams())
			better := ScorePlacement(m, cfg, &up, alloc, cur, placementParams())
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
				sc := ScorePlacement(m, cfg, topo, compact, Placement{}, placementParams())
				sp := ScorePlacement(m, cfg, topo, spanning, Placement{}, placementParams())
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

// TestMigrationCostModel pins the layout model's qualitative shape on
// a concrete topology: no source or unchanged placement is free,
// shedding data-parallel replicas is free, growing them hauls full
// shard copies (dearer than pipeline re-sharding), and a device new to
// the allocation pays for its shard.
func TestMigrationCostModel(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(4, 16, 2, 32, 8)
	p := placementParams()
	eight := topo.FirstN(8)
	four := topo.FirstN(4)
	p42 := Placement{Alloc: eight, Config: parallel.Config{TP: 1, PP: 4, DP: 2}}
	p41 := Placement{Alloc: four, Config: parallel.Config{TP: 1, PP: 4, DP: 1}}

	if sec, b := MigrationCost(m, topo, Placement{}, p42, p); sec != 0 || b != 0 {
		t.Fatalf("initial placement priced %g s / %d B, want free", sec, b)
	}
	if sec, b := MigrationCost(m, topo, p42, p42, p); sec != 0 || b != 0 {
		t.Fatalf("unchanged placement priced %g s / %d B, want free", sec, b)
	}
	// DP shed: the surviving replica already holds every shard.
	if sec, b := MigrationCost(m, topo, p42, p41, p); sec != 0 || b != 0 {
		t.Fatalf("replica shed priced %g s / %d B, want free", sec, b)
	}
	// DP growth replicates the full shard set; PP growth only
	// re-shards. Both from the same 4-device (P4,D1) start.
	_, dpGrow := MigrationCost(m, topo, p41, Placement{Alloc: eight, Config: parallel.Config{TP: 1, PP: 4, DP: 2}}, p)
	_, ppGrow := MigrationCost(m, topo, p41, Placement{Alloc: eight, Config: parallel.Config{TP: 1, PP: 8, DP: 1}}, p)
	if dpGrow <= ppGrow {
		t.Fatalf("DP growth (%d B) should move more state than PP growth (%d B)", dpGrow, ppGrow)
	}
	// Same configuration onto a set with one new device: only the new
	// device's shard moves.
	swapped := append(cluster.Allocation(nil), four[:3]...)
	swapped = append(swapped, topo.Devices[10].ID)
	sec, b := MigrationCost(m, topo, p41, Placement{Alloc: swapped, Config: p41.Config}, p)
	if sec <= 0 || b <= 0 {
		t.Fatal("replacing a device should cost a shard move")
	}
	bpp := int64(p.StateBytesPerParam)
	if want := m.NumParams() * bpp / 4; b != want {
		t.Fatalf("replacement moved %d B, want one shard = %d B", b, want)
	}
}

// TestCheapestPlacement: the forced-reshape pick moves no more state
// than any other feasible configuration within the rate floor, and a
// pure replica shed prices as free.
func TestCheapestPlacement(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(4, 16, 2, 32, 8)
	p := placementParams()
	cur := Placement{Alloc: topo.FirstN(8), Config: parallel.Config{TP: 1, PP: 4, DP: 2}}
	four := topo.FirstN(4)
	got, err := CheapestPlacement(m, topo, four, cur, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.MigrationBytes != 0 {
		t.Fatalf("shrinking (P4,D2)@8 onto its leading replica should be free, got %d B as %v",
			got.MigrationBytes, got.Config)
	}
	if got.Config != (parallel.Config{TP: 1, PP: 4, DP: 1}) {
		t.Fatalf("cheapest shrink picked %v, want the replica shed (T=1,P=4,D=1)", got.Config)
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
	before := ScorePlacement(m, cfg, topo, alloc, Placement{}, placementParams())
	if !before.Feasible {
		t.Fatalf("healthy placement infeasible: %s", before.Reason)
	}
	gen := topo.Generation()
	topo.MarkFailed(alloc[1])
	if topo.Generation() == gen {
		t.Fatal("MarkFailed did not bump the topology generation")
	}
	after := ScorePlacement(m, cfg, topo, alloc, Placement{}, placementParams())
	if after.Feasible {
		t.Fatal("placement on a failed device still feasible")
	}
}
