// Package experiments reproduces every table and figure of the paper's
// evaluation (§6) and the cluster experiments beyond it. Every table is
// data (cluster.go): an Experiment is a list of Variants, each one run
// reduced to Cells, named and classed (exact, sim, info) as a BENCH
// record files them, and Columns that show those cells. The rendered
// table, this package's claim and acceptance tests, the repository
// root's bench_test.go headlines and cmd/tenplex-bench's -fig and
// records all read the same cells, and All lists every experiment once.
// Every rendered table is pinned byte for byte by testdata/<id>.golden
// (TestGoldenTables; UPDATE_GOLDEN=1 rewrites the fixtures).
//
// A cluster variant replays a Scenario under one coordinator.Options
// (Replay) and ResultCells reduces the run. A paper variant prices one
// transition (model x topology x configuration change) under the
// strategies its table compares (transition.price), or runs the mini DL
// system and reduces its loss series. An experiment's acceptance bar is
// one exported *Headline predicate over cells read by key, asserted both
// by this package's tests and by tenplex-bench -check.
//
// Two execution planes are used (see DESIGN.md): reconfiguration-time
// experiments run the real plan generator on full-scale model shapes
// and convert the resulting per-flow byte counts into seconds with the
// netsim bandwidth model; convergence experiments run the real mini DL
// system end to end, moving real bytes through Tensor Stores.
package experiments

import (
	"fmt"
	"strings"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/netsim"
	"tenplex/internal/parallel"
)

// All is every experiment, each table once: the paper's in its order,
// then the cluster tables.
func All() []Experiment {
	return []Experiment{
		Tab1SystemComparison(), Fig2aDatasetConsistency(), Fig2bBatchConsistency(), Fig3ParallelizationSweep(),
		Fig9ElasticConvergence(1), Fig10Redeployment(), Fig11FailureRecovery(), Fig12ReconfigOverhead(),
		Fig13HorovodThroughput(), Fig14ParallelizationType(), Fig15ClusterSize(), Fig16Convergence(), Ablations(),
		MultiJobCluster(), Policies(), Placement(), Hostile(), DCScale(),
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // e.g. "fig10"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records modelling assumptions and the paper's reported
	// numbers for comparison.
	Notes []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// must is the panic-on-error helper for experiment setup code whose
// configurations are fixed by construction.
func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return v
}

// buildPTC is parallel.BuildPTC for a fixed configuration.
func buildPTC(m *model.Model, cfg parallel.Config, alloc cluster.Allocation) *core.PTC {
	return must(parallel.BuildPTC(m, cfg, alloc))
}

// transition is one reconfiguration a paper table prices: the job's
// state moves from from, less the failed devices, to to on topo.
type transition struct {
	topo     *cluster.Topology
	from, to *core.PTC
	failed   []cluster.DeviceID
}

// price runs each named strategy on the transition and fills the cell
// named after it with the seconds the netsim bandwidth model gives it.
// It runs only the strategies a table reads: central_s is a second
// GeneratePlan. tenplex_s also fills moved_gb and storage_bytes from its
// plan's stats.
func (tr transition) price(strategies ...string) Cells {
	c := Cells{Exact: map[string]any{}, Sim: map[string]float64{}}
	for _, name := range strategies {
		switch name {
		case "tenplex_s":
			// Tenplex's distributed, locality-aware path, planned and
			// priced as the coordinator plans and prices it.
			ch := must(job.PlanTo(tr.topo, tr.from, tr.to, tr.failed))
			ch.Price(tr.topo)
			c.Sim[name], c.Sim["moved_gb"] = ch.SimSec, float64(ch.Stats.MovedBytes)/1e9
			c.Exact["storage_bytes"] = ch.Stats.StorageBytes
		case "central_s":
			c.Sim[name] = tr.centralSeconds()
		case "via_storage_s":
			// Baselines that persist the entire job state to remote
			// storage and read it back under the new configuration
			// (DeepSpeed's resource-change path, §6.5): no minimality,
			// every byte crosses the storage link twice, the save writing
			// what a checkpoint writes, one replica of each.
			var save []netsim.Flow
			for g, subs := range tr.from.Unique() {
				for _, s := range subs {
					save = append(save, netsim.Flow{From: netsim.DevEP(tr.from.Devices[g]), To: netsim.StorageEP(), Bytes: s.NumBytes(tr.from.Tensors[s.Tensor])})
				}
			}
			c.Sim[name] = netsim.Simulate(tr.topo, save).Seconds + netsim.Simulate(tr.topo, job.RestoreFlows(tr.to)).Seconds
		case "gpu_state_s":
			// The Singularity-style virtual-device baseline (§6.5): the
			// complete GPU device state (training state plus
			// activations, allocator pools and runtime buffers, modelled
			// as singularityGPUStateFactor times the model state)
			// migrates point-to-point between old and new devices, even
			// when replicas already exist at the target.
			var flows []netsim.Flow
			for i, d := range tr.from.Devices {
				bytes := int64(float64(tr.from.DeviceBytes(d)) * singularityGPUStateFactor)
				if dst := tr.to.Devices[i%len(tr.to.Devices)]; dst != d {
					flows = append(flows, netsim.Flow{From: netsim.DevEP(d), To: netsim.DevEP(dst), Bytes: bytes})
				}
			}
			c.Sim[name] = netsim.Simulate(tr.topo, flows).Seconds
		case "restore_s":
			// Loading a full checkpoint into to, every destination worker
			// reading its partitions in parallel: what job.PlanRestore
			// prices.
			c.Sim[name] = netsim.Simulate(tr.topo, job.RestoreFlows(tr.to)).Seconds
		case "central_restore_s":
			c.Sim[name] = tr.centralRestoreSeconds()
		default:
			panic("experiments: no strategy " + name)
		}
	}
	return c
}

// centralSeconds models the Tenplex-Central baseline (the PyTorch-Elastic
// / DeepSpeed pattern, §6.3): all state is gathered at one central
// device, the job's first, transformed there, and scattered to the new
// devices. Gather and scatter are serialized phases, and all split and
// merge copy work lands on the central worker.
func (tr transition) centralSeconds() float64 {
	central := tr.from.Devices[0]
	plan := must(core.GeneratePlan(tr.from, tr.to, core.PlanOptions{Topo: tr.topo}))
	var gather, scatter []netsim.Flow
	for _, a := range plan.Assignments {
		if a.IsNoop() {
			continue
		}
		meta := plan.To.Tensors[a.Tensor]
		merge := len(a.Fetch) > 1
		for _, f := range a.Fetch {
			bytes := f.Want.NumBytes(meta.DType)
			var cp int64
			if f.Src.Kind == core.FromDevice && !f.Src.Region.Equal(f.Want) {
				cp += bytes // split happens at the central node
			}
			if merge {
				cp += bytes
			}
			// Phase 1: source -> central.
			src := netsim.StorageEP()
			if f.Src.Kind == core.FromDevice {
				src = netsim.DevEP(f.Src.Device)
			}
			g := netsim.Flow{From: src, To: netsim.DevEP(central), Bytes: bytes, CopyBytes: cp}
			if f.Src.Kind == core.FromDevice && f.Src.Device == central {
				g.Bytes = 0
			}
			gather = append(gather, g)
			// Phase 2: central -> destination.
			s := netsim.Flow{From: netsim.DevEP(central), To: netsim.DevEP(a.Device), Bytes: bytes}
			if a.Device == central {
				s.Bytes = 0
			}
			scatter = append(scatter, s)
		}
	}
	return netsim.Simulate(tr.topo, gather).Seconds + netsim.Simulate(tr.topo, scatter).Seconds
}

// centralRestoreSeconds models the checkpoint-rollback baseline's single
// restore process: every partition of to is read through the first
// destination worker's storage link, then scattered to the other
// workers.
func (tr transition) centralRestoreSeconds() float64 {
	first := tr.to.Devices[0]
	var load, scatter []netsim.Flow
	for _, d := range tr.to.Devices {
		for _, s := range tr.to.Place[d] {
			bytes := s.NumBytes(tr.to.Tensors[s.Tensor])
			load = append(load, netsim.Flow{From: netsim.StorageEP(), To: netsim.DevEP(first), Bytes: bytes})
			if d != first {
				scatter = append(scatter, netsim.Flow{From: netsim.DevEP(first), To: netsim.DevEP(d), Bytes: bytes})
			}
		}
	}
	return netsim.Simulate(tr.topo, load).Seconds + netsim.Simulate(tr.topo, scatter).Seconds
}

// gptWithOpt returns the paper's GPT-3 variant with Adam optimizer
// state, the payload reconfiguration experiments move.
func gptWithOpt(size string) *model.Model {
	return must(model.GPTBySize(size)).WithAdam()
}
