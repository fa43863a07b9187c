package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"tenplex/internal/experiments"
)

// The -datapathjson mode emits a machine-readable BENCH_*.json record
// of the State Transformer data path: both pipelines (streamed
// zero-copy vs the retained materialized reference) measured on the
// shared datapath workloads, moving real bytes through Tensor Stores,
// plus the wire path between loopback store servers.

// datapathRecord is the top-level BENCH_datapath_*.json document.
type datapathRecord struct {
	Schema      string                    `json:"schema"`
	GeneratedAt string                    `json:"generated_at"`
	GoVersion   string                    `json:"go_version"`
	MaxProcs    int                       `json:"gomaxprocs"`
	Rows        []experiments.DatapathRow `json:"rows"`
	// Baseline preserves the seed pipeline's BenchmarkApplyTPReshard /
	// BenchmarkApplyDistributed numbers (measured before the streaming
	// refactor) so the record documents the improvement it claims.
	Baseline datapathBaseline `json:"seed_baseline"`
}

// datapathBaseline is a static record of the pre-streaming pipeline,
// measured at the commit named in Provenance with `go test -bench
// -benchmem ./internal/transform`.
type datapathBaseline struct {
	Provenance  string             `json:"provenance"`
	Workloads   []baselineWorkload `json:"workloads"`
	Description string             `json:"description"`
}

type baselineWorkload struct {
	Workload    string  `json:"workload"`
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerSecond float64 `json:"mb_per_s"`
	AllocBytes  int64   `json:"alloc_bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	CopyAmp     float64 `json:"copy_amplification"`
}

// seedBaseline returns the materialized pipeline's numbers as measured
// at the pre-refactor tree (PR 2 head). CopyAmp is 2.0 by construction:
// every byte was copied once into a fetched sub-tensor and once more by
// assembly before staging.
func seedBaseline() datapathBaseline {
	return datapathBaseline{
		Provenance: "commit 849c515 (pre-streaming pipeline), go1.24, GOMAXPROCS=4",
		Description: "BenchmarkApplyTPReshard / BenchmarkApplyDistributed with the " +
			"materialize-then-assemble transformer and whole-tensor store I/O",
		Workloads: []baselineWorkload{
			{Workload: "tp-reshard", NsPerOp: 2643292, MBPerSecond: 1305.91,
				AllocBytes: 7510335, AllocsPerOp: 10162, CopyAmp: 2.0},
			{Workload: "distributed-dp-scaleout", NsPerOp: 3600740, MBPerSecond: 958.67,
				AllocBytes: 14386143, AllocsPerOp: 9996, CopyAmp: 2.0},
		},
	}
}

// writeDatapathJSON measures both pipelines on local stores plus the
// wire path against loopback servers and writes the record to path
// ("-" for stdout).
func writeDatapathJSON(path string, budget time.Duration) error {
	rows, _, err := experiments.DatapathComparison(budget)
	if err != nil {
		return err
	}
	restRows, err := experiments.DatapathREST(budget)
	if err != nil {
		return err
	}
	rows = append(rows, restRows...)
	rec := datapathRecord{
		Schema:      "tenplex-bench/datapath/v2",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		MaxProcs:    runtime.GOMAXPROCS(0),
		Rows:        rows,
		Baseline:    seedBaseline(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// renderDatapath adapts DatapathComparison to the experiment-table map.
func renderDatapath() experiments.Table {
	_, t, err := experiments.DatapathComparison(100 * time.Millisecond)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tenplex-bench: datapath: %v\n", err)
		os.Exit(1)
	}
	return t
}
