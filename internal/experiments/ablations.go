package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/parallel"
)

// Ablations isolate the design choices DESIGN.md calls out: allocation
// alignment, locality-aware source selection, and sub-tensor range
// queries. Each row compares the optimization on vs. off on the same
// reconfiguration.

// AblationRow is one on/off comparison.
type AblationRow struct {
	Name    string
	Metric  string
	WithOpt float64
	Without float64
}

// AblationAlignment measures the effect of core.AlignDevices on a
// pipeline-degree doubling: without it almost every stage shifts to a
// different device.
func AblationAlignment() (AblationRow, error) {
	topo := cluster.OnPrem16()
	m := gptWithOpt("1.3B")
	from := buildPTC(m, parallel.Config{TP: 2, PP: 4, DP: 1}, topo.FirstN(8))
	to := buildPTC(m, parallel.Config{TP: 2, PP: 8, DP: 1}, topo.FirstN(16))

	planRaw, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		return AblationRow{}, err
	}
	aligned := core.AlignDevices(from, to)
	planAligned, err := core.GeneratePlan(from, aligned, core.PlanOptions{Topo: topo})
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:    "allocation alignment (PP 4->8, GPT-3 XL)",
		Metric:  "GB moved",
		WithOpt: float64(planAligned.Stats(topo).MovedBytes) / 1e9,
		Without: float64(planRaw.Stats(topo).MovedBytes) / 1e9,
	}, nil
}

// AblationLocality measures topology-aware source selection: creating a
// new data-parallel replica on a worker that already hosts one replica
// should fetch intra-worker, not across the network.
func AblationLocality() (AblationRow, error) {
	topo := cluster.OnPrem16()
	m := gptWithOpt("1.3B")
	// Replicas on devices 0 (worker 0) and 4 (worker 1); the new
	// replica lands on device 1 (worker 0).
	from := buildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 2}, cluster.Allocation{0, 4})
	to := buildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 3}, cluster.Allocation{0, 4, 1})

	withTopo, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		return AblationRow{}, err
	}
	withoutTopo, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:    "locality-aware sources (DP 2->3, replica on same worker)",
		Metric:  "cross-worker GB",
		WithOpt: float64(withTopo.Stats(topo).CrossWorkerBytes) / 1e9,
		Without: float64(withoutTopo.Stats(topo).CrossWorkerBytes) / 1e9,
	}, nil
}

// AblationRangeQueries measures the sub-tensor range-query API (§5.2):
// without it, a re-slicing fetch must pull the whole source sub-tensor
// and cut it locally, doubling wire traffic on a TP doubling.
func AblationRangeQueries() (AblationRow, error) {
	topo := cluster.OnPrem16()
	m := gptWithOpt("1.3B")
	from := buildPTC(m, parallel.Config{TP: 4, PP: 2, DP: 1}, topo.FirstN(8))
	to := buildPTC(m, parallel.Config{TP: 8, PP: 2, DP: 1}, topo.FirstN(16))
	ch, err := job.PlanTo(topo, from, to, nil)
	if err != nil {
		return AblationRow{}, err
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
	return AblationRow{
		Name:    "sub-tensor range queries (TP 4->8, GPT-3 XL)",
		Metric:  "GB on the wire",
		WithOpt: float64(ranged) / 1e9,
		Without: float64(whole) / 1e9,
	}, nil
}

// Ablations runs every ablation and renders them.
func Ablations() ([]AblationRow, Table, error) {
	table := Table{
		ID:      "ablations",
		Title:   "Design-choice ablations (optimization on vs off)",
		Columns: []string{"optimization", "metric", "with", "without", "saving"},
	}
	var rows []AblationRow
	for _, f := range []func() (AblationRow, error){
		AblationAlignment, AblationLocality, AblationRangeQueries,
	} {
		r, err := f()
		if err != nil {
			return nil, table, err
		}
		rows = append(rows, r)
		saving := "-"
		if r.Without > 0 {
			saving = fmt.Sprintf("%.0f%%", (1-r.WithOpt/r.Without)*100)
		}
		table.Rows = append(table.Rows, []string{
			r.Name, r.Metric,
			fmt.Sprintf("%.2f", r.WithOpt), fmt.Sprintf("%.2f", r.Without), saving,
		})
	}
	return rows, table, nil
}
