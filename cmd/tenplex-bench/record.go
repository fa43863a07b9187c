package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// This file owns one decision: the BENCH record format and the rule
// that compares a measured record with its committed baseline. Every
// kind of record (kinds.go) is the same envelope, and what -check holds
// for a metric is decided by the class the kind files it under:
//
//   - exact:  deterministic cells (plan shapes, byte counts, event
//     counts, names). Any difference is a behavioural change, not noise.
//   - sim:    simulated floats (netsim seconds, makespans, utilization),
//     deterministic too but compared within simEpsilon so a different
//     FPU contraction cannot fail the gate.
//   - timing: lower-is-better durations re-measured on the checking
//     machine, failed when they exceed the baseline by more than
//     -check-tolerance, or when either side is not a positive finite
//     number (a path that measured nothing is not fast).
//   - info:   recorded for the reader, never compared (iteration counts,
//     allocations, machine-dependent percentiles).
//
// Rows match one-to-one by key: a row on one side only is a failure, so
// deleting a scenario cannot silently drop its gate. On top of the
// classes each kind re-asserts its experiment's headline on the freshly
// measured record.

const schema = "tenplex-bench/record/v1"

// simEpsilon is the absolute slack on every sim cell: the tightest of
// the per-metric epsilons the per-kind checkers used before they became
// one rule.
const simEpsilon = 1e-9

// checkTolerance is the default relative slack for timing cells: fail
// when a duration grows by more than this fraction over the committed
// baseline. Absolute timings vary a lot across machines and with
// background load (the baselines may come from different hardware than
// the checker), so the default only rejects >2x regressions; the exact
// and sim cells and the headlines are machine-independent. Tighten with
// -check-tolerance on a quiet, baseline-matched machine.
const checkTolerance = 1.0

// record is the one BENCH_*.json document.
type record struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Env    struct {
		GeneratedAt string `json:"generated_at"`
		GoVersion   string `json:"go_version"`
		MaxProcs    int    `json:"gomaxprocs"`
		// WallNs is the real time measuring the whole record took.
		WallNs int64 `json:"measure_wall_ns,omitempty"`
	} `json:"env"`
	// Params is what the measurement was configured with (seeds,
	// cluster shape, pacing); it documents the rows and is not compared.
	Params map[string]any `json:"params,omitempty"`
	Rows   []row          `json:"rows"`
}

// row is one measured cell group; its metrics are filed by class.
type row struct {
	Key    string             `json:"key"`
	Exact  map[string]any     `json:"exact,omitempty"`
	Sim    map[string]float64 `json:"sim,omitempty"`
	Timing map[string]float64 `json:"timing,omitempty"`
	Info   map[string]float64 `json:"info,omitempty"`
}

// measureRecord runs one kind and wraps its rows in the envelope. The
// result goes through the wire form once, so a measured record and a
// loaded baseline hold the same dynamic types (exact numbers as
// json.Number) and are checked against the same validation.
func measureRecord(k kind, budget time.Duration) (record, error) {
	start := time.Now()
	params, rows, err := k.measure(budget)
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", k.name, err)
	}
	rec := record{Schema: schema, Kind: k.name, Params: params, Rows: rows}
	rec.Env.GeneratedAt = start.UTC().Format(time.RFC3339)
	rec.Env.GoVersion = runtime.Version()
	rec.Env.MaxProcs = runtime.GOMAXPROCS(0)
	rec.Env.WallNs = time.Since(start).Nanoseconds()
	data, err := encode(rec)
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", k.name, err)
	}
	return decode(data)
}

func encode(rec record) ([]byte, error) {
	data, err := json.MarshalIndent(rec, "", "  ")
	return append(data, '\n'), err
}

// decode parses a record and refuses anything check could not compare
// cell for cell: another schema, two rows under one key, an exact cell
// that is not a scalar.
func decode(data []byte) (record, error) {
	var rec record
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // exact cells keep their literal digits
	if err := dec.Decode(&rec); err != nil {
		return record{}, err
	}
	if rec.Schema != schema {
		return record{}, fmt.Errorf("schema %q, want %q", rec.Schema, schema)
	}
	seen := map[string]bool{}
	for _, r := range rec.Rows {
		if seen[r.Key] {
			return record{}, fmt.Errorf("%s: duplicate row %q", rec.Kind, r.Key)
		}
		seen[r.Key] = true
		for name, v := range r.Exact {
			switch v.(type) {
			case json.Number, string, bool:
			default:
				return record{}, fmt.Errorf("%s %s %s: exact cell is neither number, string nor bool", rec.Kind, r.Key, name)
			}
		}
	}
	return rec, nil
}

// write emits rec to path ("-" for stdout).
func write(rec record, path string) error {
	data, err := encode(rec)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cells reads a measured record for a headline predicate. A cell that
// is not there reads as NaN and is remembered, and check reports it
// instead of whatever the predicate made of the NaN.
type cells struct {
	rec     record
	missing []string
}

// row returns the row under key, nil when there is none.
func (rec *record) row(key string) *row {
	for i := range rec.Rows {
		if rec.Rows[i].Key == key {
			return &rec.Rows[i]
		}
	}
	return nil
}

// num returns the named cell of the row under key, from whichever class
// holds it (a bool exact cell reads as 0 or 1).
func (c *cells) num(key, metric string) float64 {
	if r := c.rec.row(key); r != nil {
		for _, class := range []map[string]float64{r.Sim, r.Timing, r.Info} {
			if v, ok := class[metric]; ok {
				return v
			}
		}
		switch v := r.Exact[metric].(type) {
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
	}
	c.missing = append(c.missing, fmt.Sprintf("%s %s %s: not in the measured record (headline)", c.rec.Kind, key, metric))
	return math.NaN()
}

// names returns the sorted union of two maps' keys: of two cell maps, so
// a metric filed on one side only is still visited (and fails its
// comparison), or of one map and nil for a stable walk.
func names[V any](a, b map[string]V) []string {
	var out []string
	for name := range a {
		out = append(out, name)
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// orNaN reads a float cell, NaN when absent: NaN fails both float rules.
func orNaN(class map[string]float64, name string) float64 {
	if v, ok := class[name]; ok {
		return v
	}
	return math.NaN()
}

// check is the one comparison rule: rows one-to-one by key, each class
// under its rule, then the kind's headline on the measured record.
// Every failure reads "kind row metric: measured vs baseline (class)".
func check(k kind, measured, base record, tol float64) []string {
	var fails []string
	fail := func(key, metric string, m, b any, class string) {
		fails = append(fails, fmt.Sprintf("%s %s %s: %v vs %v (%s)", k.name, key, metric, m, b, class))
	}
	want := map[string]row{}
	for _, b := range base.Rows {
		want[b.Key] = b
	}
	for _, m := range measured.Rows {
		b, ok := want[m.Key]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s %s: row measured but not in the baseline", k.name, m.Key))
			continue
		}
		delete(want, m.Key)
		for _, name := range names(m.Exact, b.Exact) {
			if m.Exact[name] != b.Exact[name] {
				fail(m.Key, name, m.Exact[name], b.Exact[name], "exact")
			}
		}
		for _, name := range names(m.Sim, b.Sim) {
			if mv, bv := orNaN(m.Sim, name), orNaN(b.Sim, name); !(math.Abs(mv-bv) <= simEpsilon) {
				fail(m.Key, name, mv, bv, "sim")
			}
		}
		for _, name := range names(m.Timing, b.Timing) {
			mv, bv := orNaN(m.Timing, name), orNaN(b.Timing, name)
			measurable := mv > 0 && bv > 0 && !math.IsInf(mv, 0) && !math.IsInf(bv, 0)
			if !measurable || mv/bv-1 > tol {
				fail(m.Key, name, fmt.Sprintf("%.0f", mv), fmt.Sprintf("%.0f", bv), fmt.Sprintf("timing, tolerance %+.0f%%", tol*100))
			}
		}
	}
	for _, key := range names(want, nil) {
		fails = append(fails, fmt.Sprintf("%s %s: row in the baseline but not measured", k.name, key))
	}
	if k.headline != nil {
		c := &cells{rec: measured}
		if err := k.headline(c); len(c.missing) > 0 {
			fails = append(fails, c.missing...)
		} else if err != nil {
			fails = append(fails, fmt.Sprintf("%s %v (headline)", k.name, err))
		}
	}
	return fails
}

// runCheck is the bench-regression gate: for every kind with a
// committed baseline in dir it re-measures the kind and checks it
// against the newest BENCH_<kind>*.json. It returns the number of
// baselines checked and the failures, each prefixed with its file.
func runCheck(dir string, tol float64, budget time.Duration) (int, []string, error) {
	var fails []string
	checked := 0
	for _, k := range kinds {
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_"+k.name+"*.json"))
		if err != nil {
			return checked, nil, err
		}
		if len(matches) == 0 {
			continue
		}
		sort.Strings(matches)
		path := matches[len(matches)-1] // date-stamped names: lexically last is newest
		data, err := os.ReadFile(path)
		if err != nil {
			return checked, nil, err
		}
		base, err := decode(data)
		if err == nil && base.Kind != k.name {
			err = fmt.Errorf("kind %q, want %q", base.Kind, k.name)
		}
		if err != nil {
			return checked, nil, fmt.Errorf("%s: %w", path, err)
		}
		measured, err := measureRecord(k, budget)
		if err != nil {
			return checked, nil, err
		}
		checked++
		fs := check(k, measured, base, tol)
		for _, f := range fs {
			fails = append(fails, filepath.Base(path)+": "+f)
		}
		if len(fs) == 0 {
			fmt.Printf("check PASS %s\n", filepath.Base(path))
		}
	}
	if checked == 0 {
		return 0, nil, fmt.Errorf("no BENCH_*.json baselines found in %s", dir)
	}
	return checked, fails, nil
}
