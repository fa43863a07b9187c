package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
)

// Fig15Row is one bar of Fig. 15: reconfiguration time for doubling one
// parallelism dimension at a given cluster size.
type Fig15Row struct {
	Dim        string
	Transition string // e.g. "4 to 8"
	TenplexSec float64
	MovedGB    float64
}

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
func Fig15ClusterSize() ([]Fig15Row, Table) {
	topo := cluster.Cloud32()
	m := gptWithOpt("1.3B")

	cfgFor := func(dim string, n int) parallel.Config {
		switch dim {
		case "data":
			return parallel.Config{TP: 2, PP: 2, DP: n / 4}
		case "pipeline":
			return parallel.Config{TP: 2, PP: n / 2, DP: 1}
		case "tensor":
			return parallel.Config{TP: n / 2, PP: 2, DP: 1}
		}
		panic("experiments: unknown dim " + dim)
	}

	var rows []Fig15Row
	table := Table{
		ID:      "fig15",
		Title:   "Reconfiguration time vs cluster size (GPT-3 XL, 32-GPU cloud)",
		Columns: []string{"dim", "devices", "tenplex(s)", "moved(GB)"},
		Notes: []string{
			"paper: DP time grows with device count; PP and TP shrink; TP > PP (split/merge)",
			"our planner creates new DP replicas from all existing replicas in parallel,",
			"so DP *bytes* grow linearly with the degree (as in the paper) while DP *time*",
			"stays near-flat; the paper's implementation serializes more and shows time growth",
		},
	}
	for _, dim := range []string{"data", "pipeline", "tensor"} {
		for _, n := range []int{4, 8, 16} {
			from := buildPTC(m, cfgFor(dim, n), topo.FirstN(n))
			to := buildPTC(m, cfgFor(dim, 2*n), topo.FirstN(2*n))
			sec, st := reconfigSeconds(topo, from, to, nil)
			tr := fmt.Sprintf("%d to %d", n, 2*n)
			moved := float64(st.MovedBytes) / 1e9
			rows = append(rows, Fig15Row{Dim: dim, Transition: tr, TenplexSec: sec, MovedGB: moved})
			table.Rows = append(table.Rows, []string{dim, tr, secs(sec), fmt.Sprintf("%.1f", moved)})
		}
	}
	return rows, table
}
