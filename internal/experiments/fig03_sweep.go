package experiments

import (
	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/perfmodel"
)

// Fig3ParallelizationSweep reproduces Fig. 3: training throughput of
// BERT-large and GPT-3 2.7B on the 16-GPU on-premise cluster under
// every (T,P,D) configuration, one cell set per configuration, fastest
// first. The paper's headline findings: the spread between best and
// worst exceeds 10×; (2,4,2) performs best for GPT-3 2.7B because tensor
// parallelism stays inside NVLink-connected workers; (16,1,1) performs
// worst because TP crosses the inter-worker network.
func Fig3ParallelizationSweep() Experiment {
	e := Experiment{
		ID:      "fig3",
		Title:   "Throughput by parallelization configuration (16 GPUs)",
		Labels:  []string{"model", "(T,P,D)"},
		Columns: []Column{{"samples/s", "samples_sec", "%.1f", 0}, {"feasible", "feasible", "%v", 0}},
		Notes:   notes("paper: >10x spread; (2,4,2) best for GPT-3 2.7B; (16,1,1) worst"),
	}
	topo, p := cluster.OnPrem16(), perfmodel.DefaultParams()
	for _, m := range []func() *model.Model{model.BERTLarge, model.GPT3_2B7} {
		e.Variants = append(e.Variants, func() (Runs, error) {
			m := m()
			sweep := perfmodel.Sweep(m, topo, 16, p)
			runs := make(Runs, len(sweep))
			for i, est := range sweep {
				cfg := est.Config.String()
				runs[i] = Cells{Key: m.Name + " " + cfg, Labels: []string{m.Name, cfg}, Exact: map[string]any{"feasible": est.Feasible}}
				if est.Feasible {
					runs[i].Sim = map[string]float64{"samples_sec": est.SamplesSec}
				}
			}
			return runs, nil
		})
	}
	return e
}
