// Package experiments reproduces every table and figure of the paper's
// evaluation (§6). Each experiment is a pure function returning
// machine-readable rows; cmd/tenplex-bench renders them and files them
// into BENCH records, and bench_test.go wraps them as Go benchmarks. An
// experiment's acceptance bar is one exported *Headline predicate,
// asserted both by this package's tests and by tenplex-bench -check.
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

// buildPTC is a panic-on-error helper for experiment setup code whose
// configurations are fixed by construction.
func buildPTC(m *model.Model, cfg parallel.Config, alloc cluster.Allocation) *core.PTC {
	ptc, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return ptc
}

// reconfigSeconds runs the real planner between two PTCs, from less the
// failed devices, and simulates the resulting transfers on the topology
// — Tenplex's distributed, locality-aware reconfiguration path, as the
// coordinator plans and prices it.
func reconfigSeconds(topo *cluster.Topology, from, to *core.PTC, failed []cluster.DeviceID) (float64, core.Stats) {
	ch, err := job.PlanTo(topo, from, to, failed)
	if err != nil {
		panic(fmt.Sprintf("experiments: plan: %v", err))
	}
	ch.Price(topo)
	return ch.SimSec, ch.Stats
}

// centralReconfigSeconds models the Tenplex-Central baseline (the
// PyTorch-Elastic / DeepSpeed pattern, §6.3): all state is gathered at
// one central device, transformed there, and scattered to the new
// devices. Gather and scatter are serialized phases, and all split and
// merge copy work lands on the central worker.
func centralReconfigSeconds(topo *cluster.Topology, from, to *core.PTC, central cluster.DeviceID) float64 {
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		panic(fmt.Sprintf("experiments: central plan: %v", err))
	}
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
	t1 := netsim.Simulate(topo, gather)
	t2 := netsim.Simulate(topo, scatter)
	return t1.Seconds + t2.Seconds
}

// fullStateViaStorageSeconds models baselines that persist the entire
// job state to remote storage and read it back under the new
// configuration (DeepSpeed's resource-change path, §6.5): no minimality,
// every byte crosses the storage link twice.
func fullStateViaStorageSeconds(topo *cluster.Topology, from, to *core.PTC) float64 {
	var save, load []netsim.Flow
	seen := map[string]bool{}
	for _, d := range from.Devices {
		for _, s := range from.Place[d] {
			key := string(s.Tensor) + s.Region.String()
			if seen[key] {
				continue // one replica persists
			}
			seen[key] = true
			save = append(save, netsim.Flow{
				From:  netsim.DevEP(d),
				To:    netsim.StorageEP(),
				Bytes: s.NumBytes(from.Tensors[s.Tensor]),
			})
		}
	}
	for _, d := range to.Devices {
		for _, s := range to.Place[d] {
			load = append(load, netsim.Flow{
				From:  netsim.StorageEP(),
				To:    netsim.DevEP(d),
				Bytes: s.NumBytes(to.Tensors[s.Tensor]),
			})
		}
	}
	t1 := netsim.Simulate(topo, save)
	t2 := netsim.Simulate(topo, load)
	return t1.Seconds + t2.Seconds
}

// fullGPUStateSeconds models the Singularity-style virtual-device
// baseline (§6.5): the complete GPU device state — training state plus
// activations, allocator pools and runtime buffers, modeled as a
// multiplier on the model state — migrates point-to-point between old
// and new devices, even when replicas already exist at the target.
func fullGPUStateSeconds(topo *cluster.Topology, from, to *core.PTC, gpuStateFactor float64) float64 {
	var flows []netsim.Flow
	nTo := len(to.Devices)
	for i, d := range from.Devices {
		bytes := int64(float64(from.DeviceBytes(d)) * gpuStateFactor)
		dst := to.Devices[i%nTo]
		if dst == d {
			continue
		}
		flows = append(flows, netsim.Flow{From: netsim.DevEP(d), To: netsim.DevEP(dst), Bytes: bytes})
	}
	return netsim.Simulate(topo, flows).Seconds
}

// gptWithOpt returns the paper's GPT-3 variant with Adam optimizer
// state, the payload reconfiguration experiments move.
func gptWithOpt(size string) *model.Model {
	m, err := model.GPTBySize(size)
	if err != nil {
		panic(err)
	}
	return m.WithAdam()
}

func secs(v float64) string { return fmt.Sprintf("%.1f", v) }
