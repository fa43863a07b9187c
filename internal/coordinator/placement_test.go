package coordinator

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
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
	dear := &JobView{Name: "dear", SubmitIdx: 0, Surplus: 6, EvictBytes: 3000}
	cheap := &JobView{Name: "cheap", SubmitIdx: 1, Surplus: 4, EvictBytes: 0}
	stuck := &JobView{Name: "stuck", SubmitIdx: 2, Surplus: 2, EvictBytes: math.MaxInt64}
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
	low := &JobView{Name: "low", Priority: 0, Surplus: 2, EvictBytes: 5000}
	high := &JobView{Name: "high", Priority: 1, Surplus: 6, EvictBytes: 0}
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

// TestPlacementCommitsTheScoredChange: a placement-aware scale-out plans
// each candidate once, to score it, and commits the picked candidate's
// change as it was scored — coord.plans counts that one committed
// change, not the candidates.
func TestPlacementCommitsTheScoredChange(t *testing.T) {
	d, f := newFakeDriver(t, Options{Placement: true, Mode: ModeWall, DefragMaxSec: -1},
		JobSpec{Name: "v", Model: tinyGPT(), DurationMin: 300, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1})
	s := d.s
	arrive(t, d, "v", 0) // admits v on 2 devices and grows it to 4
	chain := f.chains["v"]
	if len(chain) != 2 || chain[0].kind != cmdDeploy || chain[1].kind != cmdCommit {
		t.Fatalf("v's chain: %d commands, want a deploy then a commit", len(chain))
	}
	ch := chain[1].p.ch
	if s.plans != 1 {
		t.Fatalf("%d changes counted, want the 1 committed", s.plans)
	}
	// Every candidate the grow scored — the sets a ledger holding only
	// the deploy's lease offers — was planned from the deploy's PTC and
	// is memoized with its plan; the committed change is the picked one's.
	deployed := chain[0].alloc
	before := NewLedger(s.topo)
	if err := before.Lease("v", deployed...); err != nil {
		t.Fatal(err)
	}
	sets := before.CandidateSets(2, placementCandidates, deployed)
	from := priceSource{job: "v", decided: chain[0].ptc, failed: cluster.Allocation(nil).Signature()}
	committed := 0
	for _, set := range sets {
		full := append(append(cluster.Allocation(nil), deployed...), set...)
		ps := s.cache.ScorePlacementFor("v", s.jobs["v"].spec.Model, ch.Config, s.topo, full, perfmodel.Pricer{Source: from}, s.opts.Perf)
		if ps.Migration.Plan == nil {
			t.Fatalf("candidate %v was not planned", full)
		}
		if ps.Migration.Plan == any(ch) {
			committed++
		}
	}
	if len(sets) < 2 || committed != 1 {
		t.Fatalf("%d candidates scored, %d of them the committed change; want >= 2 and exactly 1", len(sets), committed)
	}
	if ch.From != chain[0].ptc || s.jobs["v"].decided != ch.To {
		t.Fatal("the committed change was not planned from the deploy's PTC, or decided did not advance to its target")
	}
}

// TestPlacementRecoveryPricesStorageReads: a recovery candidate is
// priced by the plan that recovers it — the failed device's state that
// no survivor holds is read back from checkpoint storage, and those
// reads are in the price and in what the timeline charges.
func TestPlacementRecoveryPricesStorageReads(t *testing.T) {
	m := tinyGPT()
	d, f := newFakeDriver(t, Options{Placement: true, Mode: ModeWall, DefragMaxSec: -1},
		JobSpec{Name: "v", Model: m, DurationMin: 300, GPUs: 2, MinGPUs: 2, MaxGPUs: 2, Seed: 1})
	s := d.s
	arrive(t, d, "v", 0)
	v := s.jobs["v"]
	// Lay v out as a two-stage pipeline, so each device holds state the
	// other does not.
	pipe := parallel.Config{TP: 1, PP: 2, DP: 1}
	ptc, err := parallel.BuildPTC(m, pipe, v.alloc)
	if err != nil {
		t.Fatal(err)
	}
	v.cfg, v.decided = pipe, ptc
	dev := v.alloc[1]
	if err := d.step(event{time: 1, kind: evFailure, dev: dev}); err != nil {
		t.Fatal(err)
	}
	chain := f.chains["v"]
	ch := chain[len(chain)-1].p.ch
	if !reflect.DeepEqual(ch.Failed, []cluster.DeviceID{dev}) || ch.From != ptc {
		t.Fatalf("recovery committed %v planned from the failed placement %v; want device %d failed from v's PTC", ch.Failed, ch.From == ptc, dev)
	}
	if ch.Stats.StorageBytes == 0 || ch.Stats.StorageBytes > ch.Stats.MovedBytes {
		t.Fatalf("recovery reads %d B from storage of %d B moved; want the lost stage read back and counted", ch.Stats.StorageBytes, ch.Stats.MovedBytes)
	}
	// The forced reshape was chosen on this very plan's price.
	src := priceSource{job: "v", decided: ptc, failed: cluster.Allocation{dev}.Signature()}
	cps, err := s.cache.CheapestPlacementFor("v", m, s.topo, ch.Alloc, perfmodel.Pricer{Source: src}, s.opts.Perf)
	if err != nil || cps.Migration.Plan != any(ch) || cps.Migration.Bytes != ch.Stats.MovedBytes {
		t.Fatalf("recovery was scored at %d B on plan %v (%v), not on the committed change's %d B", cps.Migration.Bytes, cps.Migration.Plan, err, ch.Stats.MovedBytes)
	}
	rec := s.timeline[len(s.timeline)-1]
	if rec.Kind != EvRecover {
		t.Fatalf("last timeline entry is %s, want the recovery", rec.Kind)
	}
	if err := f.join(); err != nil {
		t.Fatal(err)
	}
	if err := d.receive(); err != nil {
		t.Fatal(err)
	}
	if rec = s.timeline[len(s.timeline)-1]; rec.MovedBytes != ch.Stats.MovedBytes {
		t.Fatalf("recovery charged %d B, want the planned %d B including storage reads", rec.MovedBytes, ch.Stats.MovedBytes)
	}
}
