package main

import "testing"

func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"tab1", "fig2a", "fig2b", "fig3", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"ablations", "multijob", "policies", "placement", "hostile",
		"dcscale",
	}
	for _, id := range want {
		if _, ok := all[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(all) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(all), len(want))
	}
	got := ids()
	if len(got) != len(all) {
		t.Fatalf("ids() returned %d of %d", len(got), len(all))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("ids() not sorted")
		}
	}
}

// TestQuickExperimentsRender smoke-tests the cheap generators through
// the same closures the CLI uses.
func TestQuickExperimentsRender(t *testing.T) {
	for _, id := range []string{"tab1", "fig3", "fig13"} {
		out := all[id]().Render()
		if len(out) == 0 {
			t.Errorf("%s rendered empty", id)
		}
	}
}
