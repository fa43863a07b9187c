package main

import "testing"

func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"ablations", "dcscale", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig2a", "fig2b", "fig3", "fig9",
		"hostile", "multijob", "placement", "policies", "tab1",
	}
	got := registry()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.ID != want[i] {
			t.Errorf("registry entry %d is %q, want %q (sorted, each ID once)", i, e.ID, want[i])
		}
	}
}

// TestQuickExperimentsRender smoke-tests the cheap experiments through
// the registry the CLI runs.
func TestQuickExperimentsRender(t *testing.T) {
	quick := map[string]bool{"tab1": true, "fig3": true, "fig13": true}
	for _, e := range registry() {
		if !quick[e.ID] {
			continue
		}
		_, tab, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Render()) == 0 {
			t.Errorf("%s rendered empty", e.ID)
		}
	}
}
