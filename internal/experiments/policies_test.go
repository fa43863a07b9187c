package experiments

import (
	"testing"

	"tenplex/internal/coordinator"
)

func TestPolicyComparison(t *testing.T) {
	runs, tab, err := Policies().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || len(tab.Rows) != 3 {
		t.Fatalf("want 3 policy rows, got %d/%d", len(runs), len(tab.Rows))
	}
	want := []string{"fifo", "drf", "priority"}
	for i, c := range runs {
		if c.Key != want[i] || c.Exact["policy"] != want[i] {
			t.Fatalf("row %d policy %q (ran %v), want %q", i, c.Key, c.Exact["policy"], want[i])
		}
		if u := c.Num("mean_cluster_utilization"); c.Num("makespan_min") <= 0 || u <= 0 || u > 1 {
			t.Fatalf("%s: implausible metrics %+v", c.Key, c)
		}
		if c.Num("jobs_completed") < 8 {
			t.Fatalf("%s: only %v jobs completed", c.Key, c.Num("jobs_completed"))
		}
	}

	// The FIFO row must match the single-policy multijob experiment
	// exactly — the Policy extraction may not change the default path.
	multijob, _ := run(t, MultiJobCluster())
	for _, cell := range []string{"makespan_min", "mean_cluster_utilization", "aggregate_reconfig_seconds"} {
		if runs.Num("fifo", cell) != multijob.Num("cluster", cell) {
			t.Fatalf("fifo row %+v diverges from the multijob experiment's %s %v", runs[0], cell, multijob.Num("cluster", cell))
		}
	}

	// The policies must actually behave differently on this contended
	// scenario — otherwise the comparison is vacuous.
	same := func(cell string) bool {
		return runs[0].Num(cell) == runs[1].Num(cell) && runs[0].Num(cell) == runs[2].Num(cell)
	}
	if same("makespan_min") && same("preemptions") {
		t.Fatalf("all policies produced identical outcomes:\n%s", tab.Render())
	}
}

func TestPolicyPriorities(t *testing.T) {
	specs := []coordinator.JobSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}
	got := PolicyPriorities(specs)
	for i, s := range got {
		if s.Priority != i%3 {
			t.Fatalf("job %d priority %d, want %d", i, s.Priority, i%3)
		}
	}
	if specs[3].Priority != 0 {
		t.Fatal("PolicyPriorities mutated its input")
	}
}
