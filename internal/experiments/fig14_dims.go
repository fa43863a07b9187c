package experiments

import (
	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
)

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
func Fig14ParallelizationType() Experiment {
	e := Experiment{
		ID:     "fig14",
		Title:  "Reconfiguration time by parallelization type (Tenplex vs Tenplex-Central)",
		Labels: []string{"dim", "model"},
		Columns: []Column{
			{"tenplex(s)", "tenplex_s", "%.1f", 0}, {"central(s)", "central_s", "%.1f", 0},
			{"ratio", "central_over", "%.1fx", 0},
		},
		Notes: notes(
			"paper: at 6.7B, Central is 4.0x (DP), 3.5x (PP), 3.7x (TP) slower",
			"base config (T,P,D)=(4,2,1) on 8 GPUs; target grows one dimension",
		),
	}
	topo := cluster.OnPrem16()
	base := parallel.Config{TP: 4, PP: 2, DP: 1}
	for _, tgt := range []struct {
		dim string
		cfg parallel.Config
	}{
		{"data", parallel.Config{TP: 4, PP: 2, DP: 2}},
		{"pipeline", parallel.Config{TP: 4, PP: 4, DP: 1}},
		{"tensor", parallel.Config{TP: 8, PP: 2, DP: 1}},
	} {
		for _, size := range []string{"1.3B", "2.7B", "6.7B"} {
			e.Variants = append(e.Variants, variant(tgt.dim+"/"+size, []string{tgt.dim, size}, func() (Cells, error) {
				m := gptWithOpt(size)
				tr := transition{topo: topo, from: buildPTC(m, base, topo.FirstN(base.WorldSize())),
					to: buildPTC(m, tgt.cfg, topo.FirstN(tgt.cfg.WorldSize()))}
				c := tr.price("tenplex_s", "central_s")
				c.Sim["central_over"] = c.Sim["central_s"] / c.Sim["tenplex_s"]
				return c, nil
			}))
		}
	}
	return e
}
