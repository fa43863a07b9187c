package coordinator

import (
	"reflect"
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/sched"
)

func tinyGPT() *model.Model { return model.GPTCustom(4, 16, 2, 32, 8) }
func tinyMoE() *model.Model { return model.MoECustom(3, 16, 4) }

func countKind(res Result, kind string) int {
	n := 0
	for _, e := range res.Timeline {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestRunArbitrationAndDefrag drives a crafted 16-device scenario
// through admission under contention (preemptive scale-in), elastic
// scale-out into freed capacity, and a defragmenting redeployment onto
// fewer workers.
func TestRunArbitrationAndDefrag(t *testing.T) {
	topo := cluster.OnPrem16()
	g := tinyGPT()
	specs := []JobSpec{
		{Name: "a", Model: g, ArrivalMin: 0, DurationMin: 100, GPUs: 4, Seed: 1},
		{Name: "b", Model: g, ArrivalMin: 0, DurationMin: 20, GPUs: 4, Seed: 2},
		{Name: "c", Model: g, ArrivalMin: 0, DurationMin: 30, GPUs: 4, Seed: 3},
		{Name: "d", Model: g, ArrivalMin: 0, DurationMin: 100, GPUs: 4, MinGPUs: 2, MaxGPUs: 4, Seed: 4},
		{Name: "e", Model: g, ArrivalMin: 1, DurationMin: 100, GPUs: 2, Seed: 5},
	}
	res, err := Run(topo, specs, nil, Options{})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Render())
	}
	for _, js := range res.Jobs {
		if !js.Completed {
			t.Errorf("job %s did not complete", js.Name)
		}
	}
	if n := countKind(res, EvScaleIn); n == 0 {
		t.Error("no preemptive scale-in despite contention")
	}
	if n := countKind(res, EvScaleOut); n == 0 {
		t.Error("no elastic scale-out into freed capacity")
	}
	if n := countKind(res, EvRedeploy); n == 0 {
		t.Errorf("no defragmenting redeploy\n%s", res.Render())
	}
	if res.PlansValidated == 0 || res.InvariantChecks == 0 {
		t.Errorf("plans=%d checks=%d", res.PlansValidated, res.InvariantChecks)
	}
	if res.MeanUtilization <= 0 || res.MeanUtilization > 1 {
		t.Errorf("mean utilization %.3f out of range", res.MeanUtilization)
	}

	// The same scenario with defragmentation disabled must not redeploy.
	res2, err := Run(topo, specs, nil, Options{DefragMaxSec: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(res2, EvRedeploy); n != 0 {
		t.Errorf("%d redeploys with defrag disabled", n)
	}
	// An unaffordable cost ceiling also gates the move (priced first,
	// committed only under the ceiling).
	res3, err := Run(topo, specs, nil, Options{DefragMaxSec: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(res3, EvRedeploy); n != 0 {
		t.Errorf("%d redeploys despite a 1ps cost ceiling", n)
	}
}

// TestRunFailStopRecovery injects a device failure under a running job
// and expects a recovery (with a replacement device when one is free)
// and an intact final state.
func TestRunFailStopRecovery(t *testing.T) {
	topo := cluster.OnPrem16()
	specs := []JobSpec{
		{Name: "a", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 60, GPUs: 8, MinGPUs: 4, MaxGPUs: 8, Seed: 1},
		{Name: "b", Model: tinyMoE(), ArrivalMin: 0, DurationMin: 60, GPUs: 4, Seed: 2},
	}
	failures := []FailureSpec{{TimeMin: 10, Device: 2}}
	res, err := Run(topo, specs, failures, Options{})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Render())
	}
	if countKind(res, EvFailure) != 1 || countKind(res, EvRecover) != 1 {
		t.Fatalf("failure/recover events missing\n%s", res.Render())
	}
	for _, e := range res.Timeline {
		if e.Kind == EvRecover && !strings.Contains(e.Note, "replacement device") {
			t.Errorf("recovery did not use the free replacement: %s", e.Note)
		}
	}
	for _, js := range res.Jobs {
		if !js.Completed {
			t.Errorf("job %s did not complete after the failure", js.Name)
		}
	}
}

// TestRunFailureOfFreeDevice: losing an unleased device must not touch
// any job.
func TestRunFailureOfFreeDevice(t *testing.T) {
	specs := []JobSpec{{Name: "a", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 30, GPUs: 4, Seed: 1}}
	res, err := Run(cluster.OnPrem16(), specs, []FailureSpec{{TimeMin: 5, Device: 15}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countKind(res, EvRecover) != 0 {
		t.Fatal("free-device failure triggered a recovery")
	}
	if !res.Jobs[0].Completed {
		t.Fatal("job did not complete")
	}
}

// TestRunRejectsImpossibleJob: a job whose minimum exceeds the healthy
// device count is rejected, not queued forever.
func TestRunRejectsImpossibleJob(t *testing.T) {
	specs := []JobSpec{
		{Name: "huge", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 10, GPUs: 32, MinGPUs: 32, MaxGPUs: 32, Seed: 1},
		{Name: "ok", Model: tinyGPT(), ArrivalMin: 1, DurationMin: 10, GPUs: 4, Seed: 2},
	}
	res, err := Run(cluster.OnPrem16(), specs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countKind(res, EvReject) != 1 {
		t.Fatalf("want 1 reject\n%s", res.Render())
	}
	if res.Jobs[0].Completed || !res.Jobs[1].Completed {
		t.Fatalf("job states: %+v", res.Jobs)
	}
}

// TestRunDeterministic: identical inputs yield an identical timeline,
// event for event.
func TestRunDeterministic(t *testing.T) {
	topo := cluster.Cloud32()
	arrivals, err := sched.Arrivals(sched.DefaultArrivalParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	models := []*model.Model{tinyGPT(), tinyMoE(), model.GPTCustom(6, 32, 2, 64, 8)}
	specs := SpecsFromArrivals(arrivals, func(i int) *model.Model { return models[i%len(models)] })
	failures := []FailureSpec{{TimeMin: 40, Device: 3}}

	r1, err := Run(topo, specs, failures, Options{})
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := Run(topo, specs, failures, Options{})
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if !reflect.DeepEqual(r1.Timeline, r2.Timeline) {
		t.Fatalf("timelines differ:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1.Render(), r2.Render())
	}
	if !reflect.DeepEqual(r1.Jobs, r2.Jobs) {
		t.Fatal("job summaries differ between identical runs")
	}
	if r1.MakespanMin != r2.MakespanMin || r1.ReconfigSecTotal != r2.ReconfigSecTotal {
		t.Fatal("aggregate metrics differ between identical runs")
	}
}

func TestRunValidatesSpecs(t *testing.T) {
	topo := cluster.OnPrem16()
	ok := JobSpec{Name: "a", Model: tinyGPT(), DurationMin: 10, GPUs: 2}
	bad := []JobSpec{
		{},
		{Name: "x", DurationMin: 10, GPUs: 2}, // no model
		{Name: "x", Model: tinyGPT(), DurationMin: 0, GPUs: 2},                  // no duration
		{Name: "x", Model: tinyGPT(), DurationMin: 10, GPUs: 0},                 // no gpus
		{Name: "x", Model: tinyGPT(), DurationMin: 10, GPUs: 2, MinGPUs: 4},     // min > gpus
		{Name: "x", Model: tinyGPT(), DurationMin: 10, GPUs: 4, MaxGPUs: 2},     // max < gpus
		{Name: "x", Model: tinyGPT(), DurationMin: 10, GPUs: 2, ArrivalMin: -1}, // negative arrival
	}
	for i, spec := range bad {
		if _, err := Run(topo, []JobSpec{ok, spec}, nil, Options{}); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := Run(topo, []JobSpec{ok, ok}, nil, Options{}); err == nil {
		t.Error("duplicate job name accepted")
	}
	if _, err := Run(topo, []JobSpec{ok}, []FailureSpec{{TimeMin: 1, Device: 99}}, Options{}); err == nil {
		t.Error("failure of unknown device accepted")
	}
	if _, err := Run(nil, []JobSpec{ok}, nil, Options{}); err == nil {
		t.Error("nil topology accepted")
	}
}
