package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
)

// Fig10Row is one bar pair of Fig. 10: redeploying a job from one set
// of 8 GPUs to a different set of 8 GPUs.
type Fig10Row struct {
	ModelSize   string
	TenplexSec  float64
	CentralSec  float64
	CentralOver float64 // Central / Tenplex
}

// Fig10Redeployment reproduces Fig. 10: redeployment time of a DL job
// (GPT-3 1.3B / 2.7B / 6.7B with optimizer state, (T,P,D) = (4,2,1))
// from workers 0–1 to workers 2–3 of the on-premise cluster, comparing
// Tenplex's distributed state management against Tenplex-Central.
// The paper reports Central taking 1.9–2.1× longer.
func Fig10Redeployment() ([]Fig10Row, Table) {
	topo := cluster.OnPrem16()
	cfg := parallel.Config{TP: 4, PP: 2, DP: 1}
	fromAlloc := topo.DevicesOn(0, 1)
	toAlloc := topo.DevicesOn(2, 3)

	var rows []Fig10Row
	table := Table{
		ID:      "fig10",
		Title:   "Redeployment time of DL job (8 GPUs -> 8 fresh GPUs)",
		Columns: []string{"model", "tenplex(s)", "central(s)", "central/tenplex"},
		Notes: []string{
			"paper: Central 2.1x (1.3B), 1.9x (2.7B), 2.0x (6.7B) slower than Tenplex",
			"payload: fp32 parameters + Adam moments (12 B/param)",
		},
	}
	for _, size := range []string{"1.3B", "2.7B", "6.7B"} {
		m := gptWithOpt(size)
		from := buildPTC(m, cfg, fromAlloc)
		to := buildPTC(m, cfg, toAlloc)
		tenplex, _ := reconfigSeconds(topo, from, to, nil)
		central := centralReconfigSeconds(topo, from, to, fromAlloc[0])
		r := Fig10Row{
			ModelSize:   size,
			TenplexSec:  tenplex,
			CentralSec:  central,
			CentralOver: central / tenplex,
		}
		rows = append(rows, r)
		table.Rows = append(table.Rows, []string{
			size, secs(r.TenplexSec), secs(r.CentralSec), fmt.Sprintf("%.1fx", r.CentralOver),
		})
	}
	return rows, table
}
