package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

const resultSchema = "tenplex-perfbench/v1"

// resultFile is what -out writes: one set of runs of every workload,
// with enough of the environment to tell two files apart.
type resultFile struct {
	Schema     string  `json:"schema"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Setups     int     `json:"setups"`
	// RefProbeMs is the memory probe's reference reading the datapath
	// timings are normalised to (refProbeSeconds); 0 in a file of
	// wall-clock timings, which cannot be compared with a normalised one.
	RefProbeMs float64 `json:"ref_probe_ms"`
	// BuildS is the time go build took for the daemons; informational,
	// it is mostly the state of the build cache.
	BuildS    float64          `json:"build_s"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string `json:"name"`
	// Warmup is the number of operations discarded after set-up.
	Warmup int           `json:"warmup"`
	Runs   []runResult   `json:"runs"`
	Traced *tracedResult `json:"traced,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many operations the value rests on.
	Samples int `json:"samples,omitempty"`
	// NoTail marks a p90 with fewer than ten samples beyond it: too few
	// to call it a percentile.
	NoTail bool `json:"no_tail,omitempty"`
	// StandIn marks a cell the workload does not measure, filled because
	// the PR driver wants a total table; see workloadDef.native.
	StandIn bool `json:"stand_in,omitempty"`
}

type runResult struct {
	Seed       int64   `json:"seed"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstError string  `json:"first_error,omitempty"`
	ElapsedS   float64 `json:"elapsed_s"`
	// Metrics holds all fifteen end-to-end metrics, the two ungated p90s
	// included.
	Metrics map[string]metricValue `json:"metrics"`
}

type tracedResult struct {
	Seed       int64                  `json:"seed"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Spans      int                    `json:"spans"`
	Violations []string               `json:"violations,omitempty"`
	Layers     map[string]metricValue `json:"layers"`
}

func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the PR driver's checkout is not a repository
	}
	return strings.TrimSpace(string(out))
}

func newResultFile(root string, seed int64, runs int, seconds float64, gomaxprocs int) *resultFile {
	return &resultFile{
		Schema: resultSchema, Commit: gitCommit(root), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: gomaxprocs, Seed: seed, Runs: runs,
		Seconds: seconds, Setups: setupsPerRun, RefProbeMs: refProbeSeconds * 1e3,
	}
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// standIn fills a cell w does not measure: a time repeats the
// workload's primary timing in the cell's unit, so that it varies from
// run to run as the PR driver demands of a time and stays as steady as
// the workload's best number; anything else reads exactly 1.
func standIn(d e2eDef, w workloadDef, s series) metricValue {
	scale := map[string]float64{"s": 1, "ms": 1e3}
	to, isTime := scale[d.unit]
	if !isTime {
		return metricValue{Value: 1, Unit: d.unit, StandIn: true}
	}
	p := findE2E(w.primary)
	v, _, _ := reduce(p, s)
	return metricValue{Value: v / scale[p.unit] * to, Unit: d.unit, StandIn: true}
}

// endToEndOf is the end-to-end table of a pass: all fifteen metrics,
// gated or not, measured or stand-in.
func endToEndOf(w workloadDef, res *passResult) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		if !w.measures(d.name) {
			out[d.name] = standIn(d, w, res.samples)
			continue
		}
		v, n, tail := reduce(d, res.samples)
		out[d.name] = metricValue{Value: v, Unit: d.unit, Samples: n, NoTail: !tail}
	}
	return out
}

// layersOf fills the whole per-layer table from a traced pass; a layer
// the workload does not touch reads 0.
func layersOf(w workloadDef, res *passResult) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range perLayer {
		out[d.name] = metricValue{Value: res.layers[d.name], Unit: d.unit}
	}
	e2e := endToEndOf(w, res) // the traced pass's own ungated p90s
	for _, d := range endToEnd {
		if !d.gated {
			out[d.name] = e2e[d.name]
		}
	}
	return out
}

func printMetrics(w io.Writer, title string, order []string, m map[string]metricValue) {
	fmt.Fprintf(w, "%s\n", title)
	for _, name := range order {
		v := m[name]
		note := ""
		if v.Samples > 0 {
			note = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		if v.NoTail {
			note += "  [fewer than 10 samples beyond it]"
		}
		if v.StandIn {
			note += "  [stand-in: not measured by this workload]"
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s%s\n", name, v.Value, v.Unit, note)
	}
}

// e2eNames lists the end-to-end metrics: the gated ones the PR driver
// reads, or all fifteen.
func e2eNames(gatedOnly bool) []string {
	var out []string
	for _, d := range endToEnd {
		if d.gated || !gatedOnly {
			out = append(out, d.name)
		}
	}
	return out
}

func layerNames() []string {
	var out []string
	for _, d := range perLayer {
		out = append(out, d.name)
	}
	return out
}
