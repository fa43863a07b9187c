package experiments

import (
	"encoding/json"
	"fmt"
	"math"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
)

// Scenario builds one cluster workload: the topology, the job specs and
// the injected failures.
type Scenario func() (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec)

// Variant is one run of an experiment, reduced to the cell sets its
// table shows: one for most runs, one per job, step or configuration for
// a run that yields a series. The constructor keys and labels them.
type Variant func() (Runs, error)

// Replay is the Variant that replays a cluster scenario under opts and
// reduces the run to its ResultCells, keyed key and labelled labels.
func Replay(key string, labels []string, sc Scenario, opts coordinator.Options) Variant {
	return variant(key, labels, func() (Cells, error) {
		topo, specs, failures := sc()
		res, err := coordinator.Run(topo, specs, failures, opts)
		if err != nil {
			return Cells{}, err
		}
		return ResultCells(res, specs), nil
	})
}

// variant is the Variant of the one cell set run computes, keyed key and
// labelled labels.
func variant(key string, labels []string, run func() (Cells, error)) Variant {
	return func() (Runs, error) {
		c, err := run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		c.Key, c.Labels = key, labels
		return Runs{c}, nil
	}
}

// Cells is what one run, or one job, step or configuration of a run,
// becomes, one table row, and one row of a BENCH record: every number filed under the class the record holds it
// to (cmd/tenplex-bench/record.go). Exact cells are deterministic counts
// and names, sim cells simulated floats, timing cells wall-clock
// durations (none from a cluster run), info cells machine-dependent
// readings nothing compares.
type Cells struct {
	Key    string             `json:"key"`
	Labels []string           `json:"-"`
	Exact  map[string]any     `json:"exact,omitempty"`
	Sim    map[string]float64 `json:"sim,omitempty"`
	Timing map[string]float64 `json:"timing,omitempty"`
	Info   map[string]float64 `json:"info,omitempty"`
}

// ResultCells reduces one coordinator run of specs to the cells every
// cluster table, acceptance test and BENCH record reads: the one place
// that decides how a run becomes numbers.
func ResultCells(res coordinator.Result, specs []coordinator.JobSpec) Cells {
	durations := map[string]float64{}
	for _, sp := range specs {
		durations[sp.Name] = sp.DurationMin
	}
	// Classify jobs from the timeline, not from AdmitMin sentinels: a job
	// admitted at minute 0 and later lost would otherwise be
	// indistinguishable from a never-admitted one.
	admitted, rejected := map[string]bool{}, 0
	for _, e := range res.Timeline {
		switch e.Kind {
		case coordinator.EvAdmit:
			admitted[e.Job] = true
		case coordinator.EvReject:
			rejected++
		}
	}
	completed, queued, nQueued, doneMin := 0, 0.0, 0, 0.0
	for _, js := range res.Jobs {
		if js.Completed {
			completed++
			doneMin += durations[js.Name]
		}
		if admitted[js.Name] {
			queued += js.AdmitMin - js.ArrivalMin
			nQueued++
		}
	}
	return Cells{
		Exact: map[string]any{
			"policy": res.Policy, "jobs_completed": completed, "jobs_rejected": rejected,
			"preemptions": res.Preemptions, "moved_bytes": res.MovedBytesTotal,
			"timeline_events": len(res.Timeline), "events": len(res.DecisionNs),
			// One count under the two names the records file it by.
			"plans_validated": res.PlansValidated, "plans": res.PlansValidated,
			"retries": res.Retries, "requeues": res.Requeues, "retry_bytes": res.RetryBytes,
			"quarantined_devices": res.QuarantinedDevices, "invariant_checks": res.InvariantChecks,
		},
		Sim: map[string]float64{
			"makespan_min": res.MakespanMin, "mean_cluster_utilization": res.MeanUtilization,
			"aggregate_reconfig_seconds": res.ReconfigSecTotal, "moved_gb": float64(res.MovedBytesTotal) / 1e9,
			"mean_queue_min": ratio(queued, float64(nQueued)),
			// Completed training minutes delivered per cluster minute.
			"goodput":          ratio(doneMin, res.MakespanMin),
			"recovery_seconds": res.RecoverySec,
			// Recovery downtime over the retry/requeue incidents that caused it.
			"mean_recovery_latency_seconds": ratio(res.RecoverySec, float64(res.Retries+res.Requeues)),
		},
		Info: map[string]float64{
			"p50_us": PercentileNs(res.DecisionNs, 0.50) / 1e3,
			"p90_us": PercentileNs(res.DecisionNs, 0.90) / 1e3,
			"p99_us": PercentileNs(res.DecisionNs, 0.99) / 1e3,
		},
	}
}

// JobCells reduces a run to one cell set per job, in res.Jobs order.
func JobCells(res coordinator.Result) Runs {
	out := make(Runs, len(res.Jobs))
	for i, js := range res.Jobs {
		out[i] = Cells{
			Key: js.Name, Labels: []string{js.Name},
			Exact: map[string]any{
				"model": js.Model, "requested_gpus": js.GPUs, "resizes": js.Resizes,
				"moved_bytes": js.MovedBytes, "completed": js.Completed,
			},
			Sim: map[string]float64{
				"arrival_min": js.ArrivalMin, "admit_min": js.AdmitMin, "done_min": js.DoneMin,
				"reconfig_seconds": js.ReconfigSec,
			},
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b > 0 {
		return a / b
	}
	return 0
}

// Experiment is one table written as data: its variants, the columns it
// shows of their cells, and the cells its BENCH record files.
type Experiment struct {
	ID, Title string
	// Labels heads the label columns each cell set's Labels fill.
	Labels   []string
	Variants []Variant
	Columns  []Column
	// Extra names the cells the BENCH record files beyond the columns'.
	Extra []string
	Notes func(Runs) []string
}

// Column is one table column: the cell it shows and the fmt verb it
// shows it with, in Unit when set (1e6 shows bytes as MB). A cell set
// without the cell shows "-".
type Column struct {
	Header, Cell, Format string
	Unit                 float64
}

// Runs is one cell set per run (or job, or step), in order.
type Runs []Cells

// Run runs every variant and renders the table of their cells.
func (e Experiment) Run() (Runs, Table, error) {
	var runs Runs
	for _, v := range e.Variants {
		cs, err := v()
		if err != nil {
			return nil, Table{}, fmt.Errorf("experiments: %s %w", e.ID, err)
		}
		runs = append(runs, cs...)
	}
	return runs, e.Table(runs), nil
}

// Table renders one row per labelled cell set: its labels, then its
// columns. A cell set without labels summarizes a run: the notes may
// read it, no row shows it.
func (e Experiment) Table(runs Runs) Table {
	tab := Table{ID: e.ID, Title: e.Title, Columns: append([]string(nil), e.Labels...)}
	for _, col := range e.Columns {
		tab.Columns = append(tab.Columns, col.Header)
	}
	tab.Rows = make([][]string, 0, len(runs))
	for _, c := range runs {
		if c.Labels == nil {
			continue
		}
		row := append(make([]string, 0, len(tab.Columns)), c.Labels...)
		for _, col := range e.Columns {
			v := c.value(col.Cell)
			switch {
			case v == nil:
				row = append(row, "-")
				continue
			case col.Unit != 0:
				v = c.Num(col.Cell) / col.Unit
			}
			row = append(row, fmt.Sprintf(col.Format, v))
		}
		tab.Rows = append(tab.Rows, row)
	}
	if e.Notes != nil {
		tab.Notes = e.Notes(runs)
	}
	return tab
}

// Record returns the cells the BENCH record files of each run: the
// columns' and Extra, each under its class.
func (e Experiment) Record(runs Runs) Runs {
	names := append([]string(nil), e.Extra...)
	for _, col := range e.Columns {
		names = append(names, col.Cell)
	}
	out := make(Runs, len(runs))
	for i, c := range runs {
		out[i] = c.Pick(names...)
	}
	return out
}

// Pick returns the named cells, each under its class.
func (c Cells) Pick(names ...string) Cells {
	out := Cells{Key: c.Key, Exact: map[string]any{}, Sim: map[string]float64{}, Info: map[string]float64{}}
	for _, n := range names {
		if v, ok := c.Exact[n]; ok {
			out.Exact[n] = v
		} else if v, ok := c.Sim[n]; ok {
			out.Sim[n] = v
		} else if v, ok := c.Info[n]; ok {
			out.Info[n] = v
		} else {
			panic(fmt.Sprintf("experiments: %s has no cell %q", c.Key, n))
		}
	}
	return out
}

// Num reads cell name of the run under key, NaN when there is no such
// cell: the reader the *Headline predicates take.
func (rs Runs) Num(key, name string) float64 {
	for _, c := range rs {
		if c.Key == key {
			return c.Num(name)
		}
	}
	return math.NaN()
}

// Num reads a numeric cell, from whichever class holds it (a bool reads
// as 0 or 1, a decoded record's exact number as its value), NaN when
// there is none.
func (c Cells) Num(name string) float64 {
	switch v := c.value(name).(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	case json.Number:
		if f, err := v.Float64(); err == nil {
			return f
		}
	case bool:
		if v {
			return 1
		}
		return 0
	}
	return math.NaN()
}

func (c Cells) value(name string) any {
	if v, ok := c.Exact[name]; ok {
		return v
	}
	for _, class := range []map[string]float64{c.Sim, c.Timing, c.Info} {
		if v, ok := class[name]; ok {
			return v
		}
	}
	return nil
}

// shared is the 32-device/12-job scenario the multijob, policies,
// placement and hostile tables replay, built by MultiJobScenario or its
// bursty twin.
func shared(build func(devices, jobs int, seed int64) (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec)) Scenario {
	return func() (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
		return build(32, 12, MultiJobSeed)
	}
}

// notes is a Notes func for notes that read no cell.
func notes(lines ...string) func(Runs) []string { return func(Runs) []string { return lines } }
