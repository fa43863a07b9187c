package experiments

import (
	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
)

// Fig10Redeployment reproduces Fig. 10: redeployment time of a DL job
// (GPT-3 1.3B / 2.7B / 6.7B with optimizer state, (T,P,D) = (4,2,1))
// from workers 0–1 to workers 2–3 of the on-premise cluster, comparing
// Tenplex's distributed state management against Tenplex-Central.
// The paper reports Central taking 1.9–2.1× longer.
func Fig10Redeployment() Experiment {
	e := Experiment{
		ID:     "fig10",
		Title:  "Redeployment time of DL job (8 GPUs -> 8 fresh GPUs)",
		Labels: []string{"model"},
		Columns: []Column{
			{"tenplex(s)", "tenplex_s", "%.1f", 0}, {"central(s)", "central_s", "%.1f", 0},
			{"central/tenplex", "central_over", "%.1fx", 0},
		},
		Notes: notes(
			"paper: Central 2.1x (1.3B), 1.9x (2.7B), 2.0x (6.7B) slower than Tenplex",
			"payload: fp32 parameters + Adam moments (12 B/param)",
		),
	}
	topo := cluster.OnPrem16()
	cfg := parallel.Config{TP: 4, PP: 2, DP: 1}
	fromAlloc, toAlloc := topo.DevicesOn(0, 1), topo.DevicesOn(2, 3)
	for _, size := range []string{"1.3B", "2.7B", "6.7B"} {
		e.Variants = append(e.Variants, variant(size, []string{size}, func() (Cells, error) {
			m := gptWithOpt(size)
			tr := transition{topo: topo, from: buildPTC(m, cfg, fromAlloc), to: buildPTC(m, cfg, toAlloc)}
			c := tr.price("tenplex_s", "central_s")
			c.Sim["central_over"] = c.Sim["central_s"] / c.Sim["tenplex_s"]
			return c, nil
		}))
	}
	return e
}
