package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steadyA := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name  string
		b     []float64
		bound float64
		want  string
	}{
		{"equal", []float64{100, 100, 101, 99, 100}, 0.10, verdictSame},
		{"better", []float64{50, 51, 49, 50, 50}, 0.10, verdictSame},
		{"worse inside the bound", []float64{109, 108, 109, 110, 109}, 0.10, verdictSame},
		{"worse beyond the bound", []float64{111, 112, 111, 112, 111}, 0.10, verdictWorse},
		{"spread wider than the bound hides a regression", []float64{90, 150, 100, 170, 120}, 0.10, verdictUnresolved},
		{"spread wider than the bound hides an equal median too", []float64{60, 100, 140, 100, 100}, 0.10, verdictUnresolved},
	} {
		got, _, _, _ := judge(steadyA, c.b, c.bound)
		if got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	// An exact count that moves at all is worse under its 1% bound only
	// past 1%.
	if got, _, _, _ := judge([]float64{2, 2, 2}, []float64{2.01, 2.01, 2.01}, 0.01); got != verdictSame {
		t.Errorf("copy_amp 2 -> 2.01: %s, want same", got)
	}
	if got, _, _, _ := judge([]float64{2, 2, 2}, []float64{2.25, 2.25, 2.25}, 0.01); got != verdictWorse {
		t.Errorf("copy_amp 2 -> 2.25: %s, want worse", got)
	}
	// One run a side has no spread to hold against the bound: nothing can
	// be said, however far apart the two values are.
	if got, _, _, _ := judge([]float64{100}, []float64{200}, 0.10); got != verdictUnresolved {
		t.Errorf("one run a side: %s, want unresolved", got)
	}
}

func fileWith(workload string, metric string, vals ...float64) *resultFile {
	wr := workloadResult{Name: workload}
	for i, v := range vals {
		wr.Runs = append(wr.Runs, runResult{Seed: int64(i), Metrics: map[string]metricValue{metric: {Value: v, Unit: "s"}}})
	}
	return &resultFile{Schema: resultSchema, Seconds: runSeconds, Runs: len(vals), Workloads: []workloadResult{wr}}
}

func TestCompareFiles(t *testing.T) {
	var out bytes.Buffer
	a := fileWith("wire-migrate-small", "reconfig_s", 0.050, 0.051, 0.049)
	if worse(t, &out, a, fileWith("wire-migrate-small", "reconfig_s", 0.052, 0.051, 0.050)) {
		t.Errorf("2%% slower under a 25%% bound reported worse:\n%s", out.String())
	}
	out.Reset()
	if !worse(t, &out, a, fileWith("wire-migrate-small", "reconfig_s", 0.070, 0.071, 0.069)) {
		t.Errorf("40%% slower under a 25%% bound not reported worse:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "wire-migrate-small") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("row missing from:\n%s", out.String())
	}
}

// Stand-in cells are left out, a p90 resting on too short a tail is
// unresolved, and files measured with different settings are refused.
func TestCompareFilesSkipsAndRefuses(t *testing.T) {
	var out bytes.Buffer
	a := fileWith("plan-128dev", "reconfig_s", 0.050, 0.051, 0.049)
	b := fileWith("plan-128dev", "reconfig_s", 0.090, 0.091, 0.089)
	for _, f := range []*resultFile{a, b} {
		for _, r := range f.Workloads[0].Runs {
			m := r.Metrics["reconfig_s"]
			m.StandIn = true
			r.Metrics["reconfig_s"] = m
		}
	}
	if worse(t, &out, a, b) || strings.Contains(out.String(), "reconfig_s") {
		t.Errorf("a stand-in cell was judged:\n%s", out.String())
	}

	out.Reset()
	a = fileWith("wire-migrate-small", "reconfig_p90_s", 0.060, 0.061, 0.059)
	b = fileWith("wire-migrate-small", "reconfig_p90_s", 0.090, 0.091, 0.089)
	m := b.Workloads[0].Runs[1].Metrics["reconfig_p90_s"]
	m.NoTail = true
	b.Workloads[0].Runs[1].Metrics["reconfig_p90_s"] = m
	if worse(t, &out, a, b) || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("a p90 without ten samples beyond it was judged:\n%s", out.String())
	}

	b = fileWith("wire-migrate-small", "reconfig_s", 0.050, 0.051, 0.049)
	b.Seconds = 30
	if _, err := compareFiles(&out, fileWith("wire-migrate-small", "reconfig_s", 0.050, 0.051, 0.049), b); err == nil {
		t.Error("files measured for 15 s and for 30 s were compared")
	}
}

func worse(t *testing.T, out *bytes.Buffer, a, b *resultFile) bool {
	t.Helper()
	w, err := compareFiles(out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
