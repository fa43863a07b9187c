package experiments

import (
	"reflect"
	"testing"

	"tenplex/internal/coordinator"
)

// TestMultiJobClusterAcceptance is the end-to-end acceptance run for
// the coordinator subsystem: a deterministic 32-device simulation with
// >= 8 concurrent jobs sees arrivals, elastic resizes, one fail-stop
// failure and completions, with the no-double-lease and valid-plan
// invariants checked after every event inside coordinator.Run.
// multiJobRun replays the multijob table's run, for the assertions on
// its timeline that no cell holds.
func multiJobRun(t *testing.T, seed int64) coordinator.Result {
	t.Helper()
	topo, specs, failures := MultiJobScenario(32, 12, seed)
	res, err := coordinator.Run(topo, specs, failures, coordinator.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMultiJobClusterAcceptance(t *testing.T) {
	res := multiJobRun(t, MultiJobSeed)
	runs, tab := run(t, MultiJobCluster())
	if len(res.Jobs) < 8 {
		t.Fatalf("only %d jobs in the scenario, want >= 8", len(res.Jobs))
	}
	completed := 0
	for _, js := range res.Jobs {
		if js.Completed {
			completed++
		}
	}
	if completed < 8 {
		t.Fatalf("only %d jobs completed:\n%s", completed, res.Render())
	}
	kinds := map[string]int{}
	for _, e := range res.Timeline {
		kinds[e.Kind]++
	}
	if kinds[coordinator.EvAdmit] < 8 {
		t.Fatalf("only %d admissions", kinds[coordinator.EvAdmit])
	}
	resizes := kinds[coordinator.EvScaleIn] + kinds[coordinator.EvScaleOut] + kinds[coordinator.EvRedeploy]
	if resizes == 0 {
		t.Fatalf("no elastic resizes in the run:\n%s", res.Render())
	}
	if kinds[coordinator.EvFailure] != 1 || kinds[coordinator.EvRecover] != 1 {
		t.Fatalf("failure/recover = %d/%d, want 1/1", kinds[coordinator.EvFailure], kinds[coordinator.EvRecover])
	}
	// Every resize and recovery generated a validated plan, and the
	// ledger + PTC invariants were swept after every processed event.
	if res.PlansValidated < resizes+kinds[coordinator.EvRecover] {
		t.Fatalf("%d validated plans for %d changes", res.PlansValidated, resizes+1)
	}
	if res.InvariantChecks == 0 {
		t.Fatal("no invariant sweeps ran")
	}
	if res.MeanUtilization <= 0.2 || res.MeanUtilization > 1 {
		t.Fatalf("implausible mean utilization %.3f", res.MeanUtilization)
	}
	if len(tab.Rows) != len(res.Jobs) || len(tab.Notes) == 0 {
		t.Fatalf("table shape: %d rows, %d notes", len(tab.Rows), len(tab.Notes))
	}
	if runs.Num("cluster", "makespan_min") != res.MakespanMin || runs.Num("cluster", "plans_validated") != float64(res.PlansValidated) {
		t.Fatalf("cluster cells %+v diverge from the replayed run", runs[0])
	}
}

// TestMultiJobClusterDeterministic: repeated runs with the same seed
// yield identical timelines.
func TestMultiJobClusterDeterministic(t *testing.T) {
	r1, r2 := multiJobRun(t, MultiJobSeed), multiJobRun(t, MultiJobSeed)
	if !reflect.DeepEqual(r1.Timeline, r2.Timeline) {
		t.Fatal("same-seed runs produced different timelines")
	}
	if !reflect.DeepEqual(r1.Jobs, r2.Jobs) {
		t.Fatal("same-seed runs produced different job summaries")
	}

	if r3 := multiJobRun(t, MultiJobSeed+1); reflect.DeepEqual(r1.Timeline, r3.Timeline) {
		t.Fatal("different seeds produced identical timelines")
	}
}
