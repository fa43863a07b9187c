package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
)

// Fig15ClusterSize reproduces Fig. 15: GPT-3 XL on the 32-GPU cloud
// testbed, scaling 4->8, 8->16 and 16->32 devices by doubling one
// parallelism dimension at a time:
//
//	data:     (2,2,D) with D = N/4
//	pipeline: (2,P,1) with P = N/2
//	tensor:   (T,2,1) with T = N/2
//
// The paper's qualitative findings: DP reconfiguration time *increases*
// with device count (replicas grow with the degree), PP and TP times
// *decrease* (state is constant while aggregate bandwidth grows), DP is
// the most expensive dimension overall, and TP costs more than PP
// because sub-tensors must be split and merged.
func Fig15ClusterSize() Experiment {
	e := Experiment{
		ID:      "fig15",
		Title:   "Reconfiguration time vs cluster size (GPT-3 XL, 32-GPU cloud)",
		Labels:  []string{"dim", "devices"},
		Columns: []Column{{"tenplex(s)", "tenplex_s", "%.1f", 0}, {"moved(GB)", "moved_gb", "%.1f", 0}},
		Notes: notes(
			"paper: DP time grows with device count; PP and TP shrink; TP > PP (split/merge)",
			"our planner creates new DP replicas from all existing replicas in parallel,",
			"so DP *bytes* grow linearly with the degree (as in the paper) while DP *time*",
			"stays near-flat; the paper's implementation serializes more and shows time growth",
		),
	}
	topo := cluster.Cloud32()
	for _, dim := range []struct {
		name   string
		cfgFor func(n int) parallel.Config
	}{
		{"data", func(n int) parallel.Config { return parallel.Config{TP: 2, PP: 2, DP: n / 4} }},
		{"pipeline", func(n int) parallel.Config { return parallel.Config{TP: 2, PP: n / 2, DP: 1} }},
		{"tensor", func(n int) parallel.Config { return parallel.Config{TP: n / 2, PP: 2, DP: 1} }},
	} {
		for _, n := range []int{4, 8, 16} {
			tr := fmt.Sprintf("%d to %d", n, 2*n)
			e.Variants = append(e.Variants, variant(dim.name+"/"+tr, []string{dim.name, tr}, func() (Cells, error) {
				m := gptWithOpt("1.3B")
				return transition{topo: topo, from: buildPTC(m, dim.cfgFor(n), topo.FirstN(n)),
					to: buildPTC(m, dim.cfgFor(2*n), topo.FirstN(2*n))}.price("tenplex_s"), nil
			}))
		}
	}
	return e
}
