package experiments

// Tab1SystemComparison reproduces Tab. 1, the qualitative comparison of
// proposals for dynamic GPU changes: which consistency and dynamic
// parallelism features each system supports, and its reconfiguration
// overhead class. It is a fixed fact table (the paper's own survey); this
// reproduction implements the bottom row.
func Tab1SystemComparison() Experiment {
	e := Experiment{
		ID:    "tab1",
		Title: "Comparison of proposals for dynamic GPU changes in DL jobs",
		// A fact table: every column is a label.
		Labels: []string{"approach", "system", "dataset", "hyper", "dynDP", "dynPP", "dynTP", "overhead"},
	}
	e.Variants = []Variant{func() (Runs, error) {
		runs := make(Runs, len(tab1Systems))
		for i, r := range tab1Systems {
			runs[i] = Cells{Key: r[1], Labels: r}
		}
		return runs, nil
	}}
	return e
}

// tab1Systems is Tab. 1, one system a row, in tab1's label order.
var tab1Systems = [][]string{
	{"model libraries", "Alpa", "no", "no", "no", "no", "no", "-"},
	{"model libraries", "Megatron-LM", "no", "no", "yes", "no", "no", "full state"},
	{"model libraries", "DeepSpeed", "yes", "yes", "yes", "no", "no", "full state"},
	{"elastic DL systems", "Elastic Horovod", "no", "no", "yes", "-", "-", "full state"},
	{"elastic DL systems", "Torch Distributed", "yes", "no", "yes", "user", "user", "full state"},
	{"elastic DL systems", "Varuna", "yes", "yes", "yes", "yes", "-", "full state"},
	{"elastic DL systems", "KungFu", "yes", "yes", "yes", "-", "-", "full state"},
	{"virtual devices", "VirtualFlow", "yes", "yes", "yes", "-", "-", "full state"},
	{"virtual devices", "EasyScale", "yes", "yes", "yes", "-", "-", "full state"},
	{"virtual devices", "Singularity", "yes", "yes", "yes", "no", "no", "GPU state"},
	{"state management", "Tenplex", "yes", "yes", "yes", "yes", "yes", "minimal state"},
}
