package coordinator

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
)

func pc(devs cluster.Allocation, spread int, samples, migSec float64, migBytes int64, score float64) *PlacementCandidate {
	return &PlacementCandidate{
		Devices: devs, Config: parallel.Config{TP: 1, PP: 1, DP: len(devs)},
		Spread: spread, SamplesSec: samples, MigrationSec: migSec,
		MigrationBytes: migBytes, Score: score,
	}
}

func TestRankPlacementPolicies(t *testing.T) {
	v := &ClusterView{Devices: 16, Workers: 4, PlacementAware: true}
	j := &JobView{Name: "j"}
	compact := pc(cluster.Allocation{0, 1}, 1, 100, 0, 0, 100)
	fast := pc(cluster.Allocation{4, 5}, 1, 220, 0.5, 10, 200)
	wide := pc(cluster.Allocation{0, 4}, 2, 240, 1.5, 20, 150)
	cands := []*PlacementCandidate{compact, fast, wide}

	if got := (FIFO{}).RankPlacement(v, j, cands); got != fast {
		t.Fatalf("FIFO picked %v, want the highest score", got.Devices)
	}
	// DRF treats worker spread as the second fairness resource: the
	// narrowest candidate wins, score breaks ties.
	if got := (DRF{}).RankPlacement(v, j, cands); got != fast {
		t.Fatalf("DRF picked %v, want the narrow high-score candidate", got.Devices)
	}
	if got := (PriorityGang{}).RankPlacement(v, j, cands); got != wide {
		t.Fatalf("PriorityGang picked %v, want the raw-throughput winner", got.Devices)
	}
	// Ties keep the earlier (more compact) candidate.
	same := []*PlacementCandidate{compact, pc(cluster.Allocation{8, 9}, 1, 100, 0, 0, 100)}
	if got := (FIFO{}).RankPlacement(v, j, same); got != compact {
		t.Fatal("FIFO tie did not keep the first candidate")
	}
}

func TestPickVictimEvictionCost(t *testing.T) {
	v := &ClusterView{Devices: 16, Workers: 4, PlacementAware: true}
	req := &JobView{Name: "req"}
	dear := &JobView{Name: "dear", SubmitIdx: 0, Surplus: 6, EvictCostSec: 3.0}
	cheap := &JobView{Name: "cheap", SubmitIdx: 1, Surplus: 4, EvictCostSec: 0}
	stuck := &JobView{Name: "stuck", SubmitIdx: 2, Surplus: 2, EvictCostSec: math.Inf(1)}
	cands := []*JobView{dear, cheap, stuck}

	if got := (FIFO{}).PickVictim(v, req, cands); got != cheap {
		t.Fatalf("placement-aware FIFO picked %s, want the cheapest eviction", got.Name)
	}
	// Placement off: the original largest-surplus rule, regardless of
	// any cost fields.
	off := &ClusterView{Devices: 16, Workers: 4}
	if got := (FIFO{}).PickVictim(off, req, cands); got != dear {
		t.Fatalf("count-based FIFO picked %s, want the largest surplus", got.Name)
	}
	// PriorityGang stays class-first; cost only breaks class ties.
	low := &JobView{Name: "low", Priority: 0, Surplus: 2, EvictCostSec: 5}
	high := &JobView{Name: "high", Priority: 1, Surplus: 6, EvictCostSec: 0}
	if got := (PriorityGang{}).PickVictim(v, req, []*JobView{high, low}); got != low {
		t.Fatalf("PriorityGang picked %s, want the lowest class", got.Name)
	}
}

// TestPlacementRunEndToEnd drives the contended 16-device workload —
// admission arbitration, preemptions, expansions, a defrag redeploy
// and a device failure — with placement scoring on: the run must stay
// deterministic, verify every surviving job's state, and work across
// policies and the parallel runtime.
func TestPlacementRunEndToEnd(t *testing.T) {
	topo := cluster.OnPrem16()
	specs, failures := contendedSpecs()
	base, err := Run(topo, specs, failures, Options{Placement: true})
	if err != nil {
		t.Fatalf("placement run: %v\n%s", err, base.Render())
	}
	if countKind(base, EvAdmit) == 0 || countKind(base, EvScaleIn) == 0 {
		t.Fatalf("contended run lost its arbitration events:\n%s", base.Render())
	}
	for _, name := range []string{"fifo", "drf", "priority"} {
		policy, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(topo, specs, failures, Options{Placement: true, Policy: policy})
		if err != nil {
			t.Fatalf("placement under %s: %v", name, err)
		}
		if res.Policy != name {
			t.Fatalf("ran %s, want %s", res.Policy, name)
		}
	}
	// Determinism across repeated runs and the pooled runtime — on the
	// SAME caller topology: the run marks failures on its own clone,
	// so the injected failure of one run must not leak into the next.
	for _, workers := range []int{1, 6} {
		res, err := Run(topo, specs, failures, Options{Placement: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Timeline, base.Timeline) {
			t.Fatalf("placement run not deterministic at workers=%d:\n--- base ---\n%s--- got ---\n%s",
				workers, base.Render(), res.Render())
		}
	}
	if topo.Generation() != 0 || topo.FailedDevice(failures[0].Device) {
		t.Fatal("coordinator runs mutated the caller's topology health state")
	}
}

// TestPlacementOffUnchanged: with Placement left off, a run on the
// same workload is byte-identical to the pre-placement coordinator —
// the new scoring path must be completely inert by default. (The
// 32-device scenario variant of this is the committed golden trace.)
func TestPlacementOffUnchanged(t *testing.T) {
	specs, failures := contendedSpecs()
	a, err := Run(cluster.OnPrem16(), specs, failures, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MovedBytesTotal <= 0 {
		t.Fatal("run reported no moved bytes")
	}
	if !strings.Contains(a.Render(), "makespan") {
		t.Fatal("render lost its summary line")
	}
}
