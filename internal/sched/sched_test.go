package sched

import (
	"math"
	"testing"
)

func TestPhillyDerivedTraceShape(t *testing.T) {
	tr := PhillyDerived(1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.InitialGPUs != 16 || tr.DurationMin != 538 {
		t.Fatalf("trace header: %+v", tr)
	}
	if len(tr.Events) < 10 || len(tr.Events) > 22 {
		t.Fatalf("%d events for a 538-min trace with ~35-min spacing", len(tr.Events))
	}
	// Mean inter-arrival ≈ 35 min.
	var gaps []float64
	prev := 0.0
	for _, e := range tr.Events {
		gaps = append(gaps, e.TimeMin-prev)
		prev = e.TimeMin
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	if math.Abs(mean-35) > 8 {
		t.Fatalf("mean event gap %.1f, want ≈ 35", mean)
	}
	// GPU counts stay in {16, 8, 4}.
	for _, e := range tr.Events {
		if e.GPUs != 16 && e.GPUs != 8 && e.GPUs != 4 {
			t.Fatalf("GPU level %d outside {16,8,4}", e.GPUs)
		}
	}
	// Deterministic per seed.
	tr2 := PhillyDerived(1)
	if len(tr2.Events) != len(tr.Events) || tr2.Events[3] != tr.Events[3] {
		t.Fatal("trace not deterministic")
	}
	if len(PhillyDerived(2).Events) == 0 {
		t.Fatal("other seeds must also produce events")
	}
}

func TestTraceValidate(t *testing.T) {
	bad := []Trace{
		{InitialGPUs: 0, DurationMin: 10},
		{InitialGPUs: 4, DurationMin: 10, Events: []Event{{TimeMin: 5, Kind: ScaleOut, GPUs: 2}}},
		{InitialGPUs: 4, DurationMin: 10, Events: []Event{{TimeMin: 5, Kind: ScaleIn, GPUs: 8}}},
		{InitialGPUs: 4, DurationMin: 10, Events: []Event{{TimeMin: 5, Kind: Redeploy, GPUs: 2}}},
		{InitialGPUs: 4, DurationMin: 10, Events: []Event{{TimeMin: 12, Kind: ScaleIn, GPUs: 2}}},
		{InitialGPUs: 4, DurationMin: 10, Events: []Event{
			{TimeMin: 6, Kind: ScaleIn, GPUs: 2}, {TimeMin: 5, Kind: ScaleOut, GPUs: 4},
		}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
	good := Trace{InitialGPUs: 4, DurationMin: 10, Events: []Event{
		{TimeMin: 2, Kind: ScaleOut, GPUs: 8},
		{TimeMin: 4, Kind: Redeploy, GPUs: 8},
		{TimeMin: 6, Kind: Failure, GPUs: 4},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

// fakeJob trains at a rate proportional to its GPU count and charges a
// fixed reconfiguration cost.
type fakeJob struct {
	gpus        int
	reconfigSec float64
	calls       []Event
}

func (j *fakeJob) Reconfigure(e Event) (float64, error) {
	j.calls = append(j.calls, e)
	j.gpus = e.GPUs
	return j.reconfigSec, nil
}
func (j *fakeJob) StepRate() float64 { return float64(j.gpus) / 16.0 }

func TestRunAccountsProgressAndDowntime(t *testing.T) {
	tr := Trace{InitialGPUs: 16, DurationMin: 100, Events: []Event{
		{TimeMin: 50, Kind: ScaleIn, GPUs: 8},
	}}
	job := &fakeJob{gpus: 16, reconfigSec: 120}
	res, err := Run(tr, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.calls) != 1 || job.calls[0].GPUs != 8 {
		t.Fatalf("reconfigure calls: %+v", job.calls)
	}
	// 50 min at rate 1 + ~48 min at rate 0.5 (2 min lost to downtime).
	want := 50*60.0 + 48*60*0.5
	if math.Abs(res.Steps-want) > 1 {
		t.Fatalf("steps = %.1f, want ≈ %.1f", res.Steps, want)
	}
	if res.ReconfigSec != 120 {
		t.Fatalf("downtime = %v", res.ReconfigSec)
	}
	if len(res.Timeline) < 2 {
		t.Fatal("timeline not recorded")
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.Min != 100 || last.GPUs != 8 {
		t.Fatalf("timeline end = %+v", last)
	}
}

func TestRunRejectsInvalidTrace(t *testing.T) {
	bad := Trace{InitialGPUs: 0, DurationMin: 1}
	if _, err := Run(bad, &fakeJob{gpus: 1}); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

// TestRunMoreDowntimeFewerSteps: a job with higher reconfiguration cost
// must complete fewer steps over the same trace — the essence of why
// reconfiguration speed matters (Fig. 9).
func TestRunMoreDowntimeFewerSteps(t *testing.T) {
	tr := PhillyDerived(3)
	fast := &fakeJob{gpus: 16, reconfigSec: 10}
	slow := &fakeJob{gpus: 16, reconfigSec: 600}
	rf, err := Run(tr, fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(tr, slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Steps >= rf.Steps {
		t.Fatalf("slow reconfig should cost steps: fast %.0f, slow %.0f", rf.Steps, rs.Steps)
	}
}
