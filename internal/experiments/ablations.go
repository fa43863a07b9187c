package experiments

import (
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// ablationAlignment measures the effect of core.AlignDevices on a
// pipeline-degree doubling: without it almost every stage shifts to a
// different device.
func ablationAlignment(topo *cluster.Topology, m *model.Model) (Cells, error) {
	from := buildPTC(m, parallel.Config{TP: 2, PP: 4, DP: 1}, topo.FirstN(8))
	to := buildPTC(m, parallel.Config{TP: 2, PP: 8, DP: 1}, topo.FirstN(16))

	planRaw, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		return Cells{}, err
	}
	aligned := core.AlignDevices(from, to)
	planAligned, err := core.GeneratePlan(from, aligned, core.PlanOptions{Topo: topo})
	if err != nil {
		return Cells{}, err
	}
	return onOff(float64(planAligned.Stats(topo).MovedBytes)/1e9, float64(planRaw.Stats(topo).MovedBytes)/1e9), nil
}

// ablationLocality measures topology-aware source selection: creating a
// new data-parallel replica on a worker that already hosts one replica
// should fetch intra-worker, not across the network.
func ablationLocality(topo *cluster.Topology, m *model.Model) (Cells, error) {
	// Replicas on devices 0 (worker 0) and 4 (worker 1); the new
	// replica lands on device 1 (worker 0).
	from := buildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 2}, cluster.Allocation{0, 4})
	to := buildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 3}, cluster.Allocation{0, 4, 1})

	withTopo, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		return Cells{}, err
	}
	withoutTopo, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		return Cells{}, err
	}
	return onOff(float64(withTopo.Stats(topo).CrossWorkerBytes)/1e9, float64(withoutTopo.Stats(topo).CrossWorkerBytes)/1e9), nil
}

// ablationRangeQueries measures the sub-tensor range-query API (§5.2):
// without it, a re-slicing fetch must pull the whole source sub-tensor
// and cut it locally, doubling wire traffic on a TP doubling.
func ablationRangeQueries(topo *cluster.Topology, m *model.Model) (Cells, error) {
	from := buildPTC(m, parallel.Config{TP: 4, PP: 2, DP: 1}, topo.FirstN(8))
	to := buildPTC(m, parallel.Config{TP: 8, PP: 2, DP: 1}, topo.FirstN(16))
	ch, err := job.PlanTo(topo, from, to, nil)
	if err != nil {
		return Cells{}, err
	}
	var ranged, whole int64
	for _, a := range ch.Plan.Assignments {
		meta := ch.To.Tensors[a.Tensor]
		for _, f := range a.Fetch {
			if f.Src.Kind != core.FromDevice || f.Src.Device == a.Device {
				continue
			}
			ranged += f.Want.NumBytes(meta.DType)
			whole += f.Src.Region.NumBytes(meta.DType)
		}
	}
	return onOff(float64(ranged)/1e9, float64(whole)/1e9), nil
}

// onOff is the cell set of one on/off comparison: the metric with and
// without the optimization and, when there is anything to save, the
// saving in percent.
func onOff(with, without float64) Cells {
	c := Cells{Sim: map[string]float64{"with": with, "without": without}}
	if without > 0 {
		c.Sim["saving_pct"] = (1 - with/without) * 100
	}
	return c
}

// Ablations isolates the design choices DESIGN.md calls out: allocation
// alignment, locality-aware source selection, and sub-tensor range
// queries. Each variant compares the optimization on vs. off on the same
// reconfiguration.
func Ablations() Experiment {
	e := Experiment{
		ID:     "ablations",
		Title:  "Design-choice ablations (optimization on vs off)",
		Labels: []string{"optimization", "metric"},
		Columns: []Column{
			{"with", "with", "%.2f", 0}, {"without", "without", "%.2f", 0}, {"saving", "saving_pct", "%.0f%%", 0},
		},
	}
	for _, a := range []struct {
		key, name, metric string
		run               func(*cluster.Topology, *model.Model) (Cells, error)
	}{
		{"alignment", "allocation alignment (PP 4->8, GPT-3 XL)", "GB moved", ablationAlignment},
		{"locality", "locality-aware sources (DP 2->3, replica on same worker)", "cross-worker GB", ablationLocality},
		{"range-queries", "sub-tensor range queries (TP 4->8, GPT-3 XL)", "GB on the wire", ablationRangeQueries},
	} {
		e.Variants = append(e.Variants, variant(a.key, []string{a.name, a.metric}, func() (Cells, error) {
			return a.run(cluster.OnPrem16(), gptWithOpt("1.3B"))
		}))
	}
	return e
}
