package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// The datapath comparison measures the State Transformer's two
// pipelines on identical workloads moving real bytes through per-device
// Tensor Stores: "streamed" is the production zero-copy path (every
// plan range fetched directly into its final offset in a single
// destination allocation), "materialized" is the retained
// fetch-then-assemble reference. Copy amplification — bytes physically
// copied per plan byte — is the headline metric: the streamed pipeline
// holds it at <= 1, the reference pays >= 2.

// DatapathRow is one (workload, pipeline) measurement.
type DatapathRow struct {
	Workload    string  `json:"workload"`
	Pipeline    string  `json:"pipeline"`
	Iters       int     `json:"iters"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSecond float64 `json:"mb_per_s"`
	PlanBytes   int64   `json:"plan_bytes"`
	BytesCopied int64   `json:"bytes_copied"`
	CopyAmp     float64 `json:"copy_amplification"`
	AllocBytes  int64   `json:"alloc_bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// datapathWorkload is a reconfiguration executed with real state.
type datapathWorkload struct {
	name  string
	m     *model.Model
	from  *core.PTC
	to    *core.PTC
	topo  *cluster.Topology // non-nil: execute per-worker (distributed)
	nDevs int
	plan  *core.Plan
}

func datapathWorkloads() []datapathWorkload {
	m := model.GPTCustom(4, 128, 4, 512, 32) // ~1.1 MB of real state
	seqAlloc := func(n int) cluster.Allocation {
		out := make(cluster.Allocation, n)
		for i := range out {
			out[i] = cluster.DeviceID(i)
		}
		return out
	}
	tpFrom := buildPTC(m, parallel.Config{TP: 2, PP: 1, DP: 1}, seqAlloc(2))
	tpTo := buildPTC(m, parallel.Config{TP: 4, PP: 1, DP: 1}, seqAlloc(4))
	tpPlan, err := core.GeneratePlan(tpFrom, tpTo, core.PlanOptions{})
	if err != nil {
		panic(fmt.Sprintf("experiments: datapath plan: %v", err))
	}
	topo := cluster.OnPrem16()
	dFrom := buildPTC(m, parallel.Config{TP: 2, PP: 2, DP: 1}, seqAlloc(4))
	dTo := buildPTC(m, parallel.Config{TP: 2, PP: 2, DP: 2}, seqAlloc(8))
	dPlan, err := core.GeneratePlan(dFrom, dTo, core.PlanOptions{Topo: topo})
	if err != nil {
		panic(fmt.Sprintf("experiments: datapath plan: %v", err))
	}
	return []datapathWorkload{
		{name: "tp-reshard", m: m, from: tpFrom, to: tpTo, nDevs: 4, plan: tpPlan},
		{name: "distributed-dp-scaleout", m: m, from: dFrom, to: dTo, topo: topo, nDevs: 8, plan: dPlan},
	}
}

// golden materializes the workload's source state: every tensor of the
// from-PTC, filled with a distinct deterministic sequence.
func (w datapathWorkload) golden() map[core.TensorID]*tensor.Tensor {
	golden := map[core.TensorID]*tensor.Tensor{}
	seed := 1.0
	for id, meta := range w.from.Tensors {
		full := tensor.New(meta.DType, meta.Shape...)
		full.FillSeq(seed*1e4, 1)
		seed++
		golden[id] = full
	}
	return golden
}

// row reduces one measurement to its table row: nsPerOp is the
// per-apply time the caller settled on (mean or median), last the final
// apply's stats, allocs and allocBytes the totals over all iters.
func (w datapathWorkload) row(pipeline string, iters int, nsPerOp int64, last transform.Stats, allocs, allocBytes uint64) DatapathRow {
	mbps := 0.0
	if nsPerOp > 0 {
		mbps = float64(w.m.ParamBytes()) / (float64(nsPerOp) / 1e9) / 1e6
	}
	return DatapathRow{
		Workload:    w.name,
		Pipeline:    pipeline,
		Iters:       iters,
		NsPerOp:     nsPerOp,
		MBPerSecond: mbps,
		PlanBytes:   last.PlanBytes(),
		BytesCopied: last.BytesCopied,
		CopyAmp:     last.CopyAmplification(),
		AllocBytes:  int64(allocBytes) / int64(iters),
		AllocsPerOp: int64(allocs) / int64(iters),
	}
}

// measureDatapath executes one workload through one pipeline until the
// budget elapses (at least minIters), tracking wall time and the
// allocation counters of the timed Apply only (store seeding is
// excluded, mirroring the Go benchmark's StopTimer discipline).
func measureDatapath(w datapathWorkload, p transform.Pipeline, name string,
	budget time.Duration, minIters int) (DatapathRow, error) {
	golden := w.golden()
	var (
		iters      int
		elapsed    time.Duration
		allocs     uint64
		allocBytes uint64
		last       transform.Stats
		m1, m2     runtime.MemStats
	)
	for iters < minIters || elapsed < budget {
		stores := map[cluster.DeviceID]store.Access{}
		for d := 0; d < w.nDevs; d++ {
			stores[cluster.DeviceID(d)] = store.Local{FS: store.NewMemFS()}
		}
		if err := transform.LoadPTC("datapath", w.from, stores, golden); err != nil {
			return DatapathRow{}, err
		}
		runtime.ReadMemStats(&m1)
		t0 := time.Now()
		var st transform.Stats
		var err error
		if w.topo != nil {
			st, err = transform.ApplyDistributedPipeline("datapath", w.plan, w.topo, stores, nil, p)
		} else {
			tr := &transform.Transformer{Job: "datapath", Stores: stores, Pipeline: p}
			st, err = tr.Apply(w.plan)
		}
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&m2)
		if err != nil {
			return DatapathRow{}, fmt.Errorf("datapath %s/%s: %w", w.name, name, err)
		}
		allocs += m2.Mallocs - m1.Mallocs
		allocBytes += m2.TotalAlloc - m1.TotalAlloc
		last = st
		iters++
	}
	return w.row(name, iters, elapsed.Nanoseconds()/int64(iters), last, allocs, allocBytes), nil
}

// DatapathREST measures the wire datapath against real tenplex-store
// servers over loopback HTTP. The workload is a TP-merge migration —
// four tensor-parallel shards on devices 0..3 reassembled into full
// replicas on devices 4..7 — so every destination tensor is a merge of
// four remote ranges, which each destination store pulls from its peers
// itself (one /assemble per destination, one /batch per peer pair). The
// row keeps the pipeline name "batched" it had when a per-range mode
// was measured beside it, so it still matches the committed baselines.
// The servers and clients live for the whole measurement — connection
// reuse across requests is part of what the numbers claim — and each
// iteration wipes and reloads the job's state tree in untimed setup.
func DatapathREST(budget time.Duration) ([]DatapathRow, error) {
	// Finer-grained than the local workloads (more layers, smaller
	// hidden): per-request overhead is what the wire path has to keep
	// down, so it is measured on a realistic many-small-tensors state.
	m := model.GPTCustom(12, 48, 4, 192, 32)
	srcAlloc := cluster.Allocation{0, 1, 2, 3}
	dstAlloc := cluster.Allocation{4, 5, 6, 7}
	topo := cluster.OnPrem16()
	from := buildPTC(m, parallel.Config{TP: 4, PP: 1, DP: 1}, srcAlloc)
	to := buildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 4}, dstAlloc)
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		return nil, fmt.Errorf("experiments: datapath: rest plan: %w", err)
	}
	w := datapathWorkload{name: "rest-tp-migrate", m: m, from: from, to: to,
		topo: topo, nDevs: 8, plan: plan}

	stores := map[cluster.DeviceID]store.Access{}
	clients := make([]*store.Client, 0, w.nDevs)
	for d := 0; d < w.nDevs; d++ {
		srv := store.NewServer(store.NewMemFS())
		addr, closeSrv, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer closeSrv() //nolint:errcheck // teardown
		c := &store.Client{Base: "http://" + addr}
		stores[cluster.DeviceID(d)] = c
		clients = append(clients, c)
	}
	wipe := func() {
		for _, c := range clients {
			c.Delete("/job/datapath") //nolint:errcheck // absent on the first iteration
		}
	}

	row, err := measureDatapathREST(w, stores, wipe, budget, 5)
	if err != nil {
		return nil, err
	}
	return []DatapathRow{row}, nil
}

// measureDatapathREST is measureDatapath against long-lived remote
// stores: state reloads through the wire in untimed setup, and the
// timed region is exactly the distributed apply. Unlike the in-process
// measurements it reports the MEDIAN per-op time rather than the mean:
// wire runs ride the kernel scheduler and the allocator hard enough
// that a single stalled iteration (GC mark on one core, a dropped
// segment) would otherwise swamp the whole sample, and the regression
// gate needs a statistic that survives one outlier.
func measureDatapathREST(w datapathWorkload, stores map[cluster.DeviceID]store.Access,
	wipe func(), budget time.Duration, minIters int) (DatapathRow, error) {
	golden := w.golden()
	var (
		iters      int
		elapsed    time.Duration
		samples    []time.Duration
		allocs     uint64
		allocBytes uint64
		last       transform.Stats
		m1, m2     runtime.MemStats
	)
	for iters < minIters || elapsed < budget {
		wipe()
		if err := transform.LoadPTC("datapath", w.from, stores, golden); err != nil {
			return DatapathRow{}, err
		}
		runtime.ReadMemStats(&m1)
		t0 := time.Now()
		st, err := transform.ApplyDistributed("datapath", w.plan, w.topo, stores, nil)
		d := time.Since(t0)
		elapsed += d
		samples = append(samples, d)
		runtime.ReadMemStats(&m2)
		if err != nil {
			return DatapathRow{}, fmt.Errorf("datapath %s: %w", w.name, err)
		}
		allocs += m2.Mallocs - m1.Mallocs
		allocBytes += m2.TotalAlloc - m1.TotalAlloc
		last = st
		iters++
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return w.row("batched", iters, samples[len(samples)/2].Nanoseconds(), last, allocs, allocBytes), nil
}

// CopyAmpHeadline is the datapath acceptance bar, asserted on every row
// by TestDatapathComparison and by tenplex-bench -check: a pipeline that
// places each plan range directly copies every plan byte at most once
// (local stores retain uploads by reference), and the materialized
// reference pays at least twice.
func CopyAmpHeadline(materialized bool, copyAmp float64) error {
	if materialized && copyAmp < 1.99 {
		return fmt.Errorf("copy_amplification: %.3f below the reference's 2", copyAmp)
	}
	if !materialized && copyAmp > 1.01 {
		return fmt.Errorf("copy_amplification: %.3f above the ceiling of 1", copyAmp)
	}
	return nil
}

// DatapathComparison runs both pipelines over every datapath workload.
func DatapathComparison(budget time.Duration) ([]DatapathRow, Table, error) {
	var rows []DatapathRow
	for _, w := range datapathWorkloads() {
		for _, pl := range []struct {
			p    transform.Pipeline
			name string
		}{{transform.Streamed, "streamed"}, {transform.Materialized, "materialized"}} {
			row, err := measureDatapath(w, pl.p, pl.name, budget, 2)
			if err != nil {
				return nil, Table{}, err
			}
			rows = append(rows, row)
		}
	}
	t := Table{
		ID:    "datapath",
		Title: "State Transformer data path: streamed (zero-copy) vs materialized reference",
		Columns: []string{"workload", "pipeline", "MB/s", "plan-MB", "copied-MB",
			"copy-amp", "alloc-MB/op", "allocs/op"},
		Notes: []string{
			"copy-amp = bytes physically copied / plan bytes; 1.0 means every byte moved once",
			"both pipelines are property-tested byte-identical (transform.TestApplyEquivalenceRandomized)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload, r.Pipeline,
			fmt.Sprintf("%.0f", r.MBPerSecond),
			fmt.Sprintf("%.2f", float64(r.PlanBytes)/1e6),
			fmt.Sprintf("%.2f", float64(r.BytesCopied)/1e6),
			fmt.Sprintf("%.2f", r.CopyAmp),
			fmt.Sprintf("%.2f", float64(r.AllocBytes)/1e6),
			fmt.Sprintf("%d", r.AllocsPerOp),
		})
	}
	return rows, t, nil
}
