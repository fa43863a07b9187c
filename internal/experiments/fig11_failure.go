package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/netsim"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
)

// Fig11Row is one group of Fig. 11: recovery time after losing a number
// of GPUs, for Tenplex and the checkpoint-rollback baseline.
type Fig11Row struct {
	FailedGPUs  int
	TenplexSec  float64
	BaselineSec float64
	// UsedReplica reports whether a surviving model replica made
	// rollback-free recovery possible.
	UsedReplica bool
}

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
func Fig11FailureRecovery() ([]Fig11Row, Table) {
	topo := cluster.OnPrem16()
	m := gptWithOpt("2.7B")
	cfg := parallel.Config{TP: 4, PP: 2, DP: 2}
	from := buildPTC(m, cfg, topo.FirstN(16))
	p := perfmodel.DefaultParams()
	// 240 divides by every DP degree reachable with 4, 8 and 12
	// surviving devices.
	p.GlobalBatch = 240

	var rows []Fig11Row
	table := Table{
		ID:      "fig11",
		Title:   "Failure recovery time (GPT-3 2.7B, (T,P,D)=(4,2,2))",
		Columns: []string{"failed-gpus", "tenplex(s)", "baseline(s)", "via"},
		Notes: []string{
			"paper: with a surviving replica (4/8 failures) Tenplex needs ~5% of the baseline",
			fmt.Sprintf("baseline: restore last checkpoint from storage + re-run %d lost steps", lostStepsOnFailure),
		},
	}
	for _, failed := range []int{4, 8, 12} {
		remaining := 16 - failed
		var dead []cluster.DeviceID
		for i := remaining; i < 16; i++ {
			dead = append(dead, cluster.DeviceID(i))
		}
		degraded := from.WithoutDevices(dead...)
		best, err := perfmodel.Best(m, topo, remaining, p)
		if err != nil {
			panic(err)
		}
		to := buildPTC(m, best.Config, topo.FirstN(remaining))
		iterSec := perfmodel.Throughput(m, best.Config, topo, topo.FirstN(remaining), p).IterSec

		// Does a full replica survive? Equivalent to: every tensor
		// range still has a holder.
		replica := degraded.Validate() == nil

		var tenplex float64
		if replica {
			sec, st := reconfigSeconds(topo, from, to, dead)
			if st.StorageBytes != 0 {
				panic("experiments: replica recovery read storage")
			}
			tenplex = sec
		} else {
			// Both systems roll back; Tenplex restores in parallel
			// across the surviving workers' storage links.
			tenplex = storageRestoreSeconds(topo, to, false) + lostStepsOnFailure*iterSec
		}
		baseline := storageRestoreSeconds(topo, to, true) + lostStepsOnFailure*iterSec

		rows = append(rows, Fig11Row{
			FailedGPUs: failed, TenplexSec: tenplex, BaselineSec: baseline, UsedReplica: replica,
		})
		via := "replica"
		if !replica {
			via = "checkpoint"
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(failed), secs(tenplex), secs(baseline), via,
		})
	}
	return rows, table
}

// storageRestoreSeconds models loading a full checkpoint into the
// destination PTC. central=true funnels all reads through one worker's
// storage link (the baseline's single restore process); otherwise every
// destination worker reads its partitions in parallel.
func storageRestoreSeconds(topo *cluster.Topology, to *core.PTC, central bool) float64 {
	var flows []netsim.Flow
	for _, d := range to.Devices {
		dst := d
		if central {
			dst = to.Devices[0]
		}
		for _, s := range to.Place[d] {
			flows = append(flows, netsim.Flow{
				From:  netsim.StorageEP(),
				To:    netsim.DevEP(dst),
				Bytes: s.NumBytes(to.Tensors[s.Tensor]),
			})
		}
	}
	t := netsim.Simulate(topo, flows).Seconds
	if central {
		// The central process re-distributes partitions to the other
		// workers after loading.
		var scatter []netsim.Flow
		for _, d := range to.Devices {
			if d == to.Devices[0] {
				continue
			}
			for _, s := range to.Place[d] {
				scatter = append(scatter, netsim.Flow{
					From:  netsim.DevEP(to.Devices[0]),
					To:    netsim.DevEP(d),
					Bytes: s.NumBytes(to.Tensors[s.Tensor]),
				})
			}
		}
		t += netsim.Simulate(topo, scatter).Seconds
	}
	return t
}
