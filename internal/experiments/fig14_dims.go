package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
)

// Fig14Row is one bar pair of Fig. 14: reconfiguration time along one
// parallelism dimension for one model size.
type Fig14Row struct {
	Dim        string // "data" | "pipeline" | "tensor"
	ModelSize  string
	TenplexSec float64
	CentralSec float64
}

// Fig14ParallelizationType reproduces Fig. 14: reconfiguration time for
// GPT-3 1.3B/2.7B/6.7B when one parallelism dimension changes:
//
//	data:     (T,P,D) = (4,2,1) -> (4,2,2)
//	pipeline: (4,2,1) -> (4,4,1)
//	tensor:   (4,2,1) -> (8,2,1)
//
// comparing Tenplex against Tenplex-Central. The paper reports Central
// 4× slower under DP, 3.5× under PP and 3.7× under TP for the 6.7B
// model, with the 1.3B pipeline case as the exception where the network
// does not bottleneck.
func Fig14ParallelizationType() ([]Fig14Row, Table) {
	topo := cluster.OnPrem16()
	base := parallel.Config{TP: 4, PP: 2, DP: 1}
	targets := []struct {
		dim string
		cfg parallel.Config
	}{
		{"data", parallel.Config{TP: 4, PP: 2, DP: 2}},
		{"pipeline", parallel.Config{TP: 4, PP: 4, DP: 1}},
		{"tensor", parallel.Config{TP: 8, PP: 2, DP: 1}},
	}

	var rows []Fig14Row
	table := Table{
		ID:      "fig14",
		Title:   "Reconfiguration time by parallelization type (Tenplex vs Tenplex-Central)",
		Columns: []string{"dim", "model", "tenplex(s)", "central(s)", "ratio"},
		Notes: []string{
			"paper: at 6.7B, Central is 4.0x (DP), 3.5x (PP), 3.7x (TP) slower",
			"base config (T,P,D)=(4,2,1) on 8 GPUs; target grows one dimension",
		},
	}
	for _, tgt := range targets {
		for _, size := range []string{"1.3B", "2.7B", "6.7B"} {
			m := gptWithOpt(size)
			from := buildPTC(m, base, topo.FirstN(base.WorldSize()))
			to := buildPTC(m, tgt.cfg, topo.FirstN(tgt.cfg.WorldSize()))
			tenplex, _ := reconfigSeconds(topo, from, to, nil)
			central := centralReconfigSeconds(topo, from, to, 0)
			rows = append(rows, Fig14Row{
				Dim: tgt.dim, ModelSize: size,
				TenplexSec: tenplex, CentralSec: central,
			})
			table.Rows = append(table.Rows, []string{
				tgt.dim, size, secs(tenplex), secs(central), fmt.Sprintf("%.1fx", central/tenplex),
			})
		}
	}
	return rows, table
}
