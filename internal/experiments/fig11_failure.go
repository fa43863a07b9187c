package experiments

import (
	"fmt"
	"sync"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
)

// lostStepsOnFailure is the paper's average progress lost when rolling
// back to the last checkpoint (§6.4).
const lostStepsOnFailure = 50

// Fig11FailureRecovery reproduces Fig. 11: GPT-3 2.7B with
// (T,P,D) = (4,2,2) on the 16-GPU cluster, failing 4, 8 and 12 GPUs.
// With ≤ 8 failures one data-parallel replica survives, so Tenplex
// rebuilds state from live Tensor Stores without losing a step (the
// paper reports ≈ 5% of the baseline's recovery time); with 12 failures
// no replica survives and both systems roll back to the checkpoint and
// re-run the lost steps — Tenplex retains only a small edge from
// reading the checkpoint in parallel across surviving workers.
func Fig11FailureRecovery() Experiment {
	e := Experiment{
		ID:     "fig11",
		Title:  "Failure recovery time (GPT-3 2.7B, (T,P,D)=(4,2,2))",
		Labels: []string{"failed-gpus"},
		Columns: []Column{
			{"tenplex(s)", "tenplex_s", "%.1f", 0}, {"baseline(s)", "baseline_s", "%.1f", 0}, {"via", "via", "%s", 0},
		},
		Notes: notes(
			"paper: with a surviving replica (4/8 failures) Tenplex needs ~5% of the baseline",
			fmt.Sprintf("baseline: restore last checkpoint from storage + re-run %d lost steps", lostStepsOnFailure),
		),
	}
	topo := cluster.OnPrem16()
	m := gptWithOpt("2.7B")
	from := sync.OnceValue(func() *core.PTC { return buildPTC(m, parallel.Config{TP: 4, PP: 2, DP: 2}, topo.FirstN(16)) })
	p := perfmodel.DefaultParams()
	// 240 divides by every DP degree reachable with 4, 8 and 12
	// surviving devices.
	p.GlobalBatch = 240
	for _, failed := range []int{4, 8, 12} {
		key := fmt.Sprint(failed)
		e.Variants = append(e.Variants, variant(key, []string{key}, func() (Cells, error) {
			remaining := 16 - failed
			dead := topo.FirstN(16)[remaining:]
			best, err := perfmodel.Best(m, topo, remaining, p)
			if err != nil {
				return Cells{}, err
			}
			tr := transition{topo: topo, from: from(), to: buildPTC(m, best.Config, topo.FirstN(remaining)), failed: dead}
			lost := lostStepsOnFailure * perfmodel.Throughput(m, best.Config, topo, topo.FirstN(remaining), p).IterSec

			// A full replica survives when every tensor range still has
			// a holder. Without one, both systems roll back, and Tenplex
			// restores in parallel across the surviving workers' storage
			// links.
			if from().WithoutDevices(dead...).Validate() != nil {
				c := tr.price("restore_s", "central_restore_s")
				c.Exact["via"] = "checkpoint"
				c.Sim["tenplex_s"] = c.Sim["restore_s"] + lost
				c.Sim["baseline_s"] = c.Sim["central_restore_s"] + lost
				return c, nil
			}
			c := tr.price("tenplex_s", "central_restore_s")
			if c.Exact["storage_bytes"] != int64(0) {
				panic("experiments: replica recovery read storage")
			}
			c.Exact["via"] = "replica"
			c.Sim["baseline_s"] = c.Sim["central_restore_s"] + lost
			return c, nil
		}))
	}
	return e
}
