package coordinator_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tenplex/internal/coordinator"
	"tenplex/internal/experiments"
)

// The golden-trace regression test pins the default coordinator
// behavior to a committed baseline: the FIFO 32-device/12-job
// simulation's rendered result must stay byte-identical to
// testdata/multijob_fifo_32x12.golden — at every worker count, since
// the parallel runtime may never leak nondeterminism into sim mode.
// It replaces the ad-hoc CI step that diffed two fresh runs against
// each other (which caught nondeterminism but not behavioral drift
// against history).
//
// If a PR intentionally changes default scheduling behavior, the
// fixture is regenerated with:
//
//	UPDATE_GOLDEN=1 go test ./internal/coordinator -run TestGoldenTraceFIFO32x12
//
// and the diff reviewed like any other behavioral change.

var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenTraceFIFO32x12(t *testing.T) {
	goldenPath := filepath.Join("testdata", "multijob_fifo_32x12.golden")
	var rendered string
	for _, workers := range []int{1, 0, 16} {
		topo, specs, failures := experiments.MultiJobScenario(32, 12, experiments.MultiJobSeed)
		res, err := coordinator.Run(topo, specs, failures, coordinator.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.Render()
		if rendered == "" {
			rendered = got
		} else if got != rendered {
			t.Fatalf("workers=%d: trace diverged from the workers=1 run", workers)
		}
	}
	if updateGolden {
		if err := os.WriteFile(goldenPath, []byte(rendered), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace updated: %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if rendered != string(want) {
		t.Fatalf("default FIFO sim trace drifted from the committed golden baseline.\n"+
			"If this change is intentional, regenerate with UPDATE_GOLDEN=1 and review the diff.\n--- got ---\n%s--- want ---\n%s",
			rendered, want)
	}
}

// TestGoldenTracePlacementDiffers documents that the golden fixture
// covers the DEFAULT mode only: placement-aware runs legitimately
// diverge from it (that divergence is the experiment), while keeping
// the same admission shape.
func TestGoldenTracePlacementDiffers(t *testing.T) {
	topo, specs, failures := experiments.MultiJobScenario(32, 12, experiments.MultiJobSeed)
	res, err := coordinator.Run(topo, specs, failures, coordinator.Options{Placement: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "multijob_fifo_32x12.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() == string(want) {
		t.Fatal("placement-aware run reproduced the count-based trace exactly; scoring is not wired in")
	}
	for _, js := range res.Jobs {
		if !js.Completed {
			t.Fatalf("job %s did not complete under placement-aware scheduling", js.Name)
		}
	}
}

// TestWallTimelineMatchesSim holds what BENCH_coordinator files as
// trace_matches_sim, on the same scenario, where `go test` sees it:
// paced on the real clock — serialized, and with the pool, where every
// change is planned on the event loop against the decided PTC while the
// one before it may still be moving bytes — the run decides, prices and
// completes exactly what sim mode does, event for event and job for job.
func TestWallTimelineMatchesSim(t *testing.T) {
	topo, specs, failures := experiments.MultiJobScenario(32, 12, experiments.MultiJobSeed)
	sim, err := coordinator.Run(topo, specs, failures, coordinator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		wall, err := coordinator.Run(topo, specs, failures, coordinator.Options{
			Mode: coordinator.ModeWall, Workers: workers, WallScale: time.Microsecond})
		if err != nil {
			t.Fatalf("wall, workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(sim.Timeline, wall.Timeline) || !reflect.DeepEqual(sim.Jobs, wall.Jobs) ||
			sim.PlansValidated != wall.PlansValidated {
			t.Fatalf("wall, workers=%d: diverged from sim mode\n--- sim ---\n%s--- wall ---\n%s",
				workers, sim.Render(), wall.Render())
		}
	}
}

// TestReplayReproducesRuns: the decision core is a function of its
// inputs. Every input a run's core consumed is recorded — the golden
// scenario at workers 1 and GOMAXPROCS, the hostile plan, and the BENCH
// coordinator scenario paced on the real clock with the pool — and fed
// to a fresh core over a scripted executor, which must decide the same
// run (coordinator.CheckReplay).
func TestReplayReproducesRuns(t *testing.T) {
	topo, specs, failures := experiments.MultiJobScenario(32, 12, experiments.MultiJobSeed)
	for name, opts := range map[string]coordinator.Options{
		"golden/workers=1": {Workers: 1},
		"golden/workers=0": {},
		"hostile-0.004":    {Chaos: hostilePlan(7), Recovery: hostileRecovery()},
		"wall/workers=8":   {Mode: coordinator.ModeWall, Workers: 8, WallScale: 100 * time.Microsecond},
	} {
		t.Run(name, func(t *testing.T) {
			n := coordinator.CheckReplay(t, topo, specs, failures, opts)
			t.Logf("%d inputs replayed", n)
		})
	}
}
