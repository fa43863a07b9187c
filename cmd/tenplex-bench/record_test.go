package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"tenplex/internal/experiments"
)

// The millisecond budget makes timings pure noise; where a test is not
// about the timing rule a huge tolerance pins it to the other classes.
const noTimingTol = 1e9

// cell names one metric of one row.
type cell struct{ key, class, metric string }

// kindCase is one row of the kinds table test: what a freshly measured
// record of the kind must look like, one cell of each class to tamper,
// and edits that break the kind's headline (applied to both sides, so
// only the headline can fire) with the cell the failure must name.
type kindCase struct {
	sane      func(t *testing.T, rec record, get func(key, metric string) float64)
	exact     cell
	sim       cell
	timing    cell // zero: the kind measures no wall-clock duration
	headlines []headlineCase
}

type headlineCase struct {
	edit  func(rec *record)
	names string
}

// set overwrites one cell in place.
func set(rec *record, c cell, v any) {
	r := rec.row(c.key)
	switch c.class {
	case "exact":
		r.Exact[c.metric] = v
	case "sim":
		r.Sim[c.metric] = v.(float64)
	case "timing":
		r.Timing[c.metric] = v.(float64)
	case "info":
		r.Info[c.metric] = v.(float64)
	}
}

// clone deep-copies a record through its wire form.
func clone(t *testing.T, rec record) record {
	t.Helper()
	data, err := encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func number(v float64) json.Number { return json.Number(fmt.Sprintf("%.0f", v)) }

var kindCases = map[string]kindCase{
	"planner": {
		sane: func(t *testing.T, rec record, get func(key, metric string) float64) {
			if len(rec.Rows) < 6 {
				t.Fatalf("only %d scenarios recorded", len(rec.Rows))
			}
			names := map[string]bool{}
			for _, r := range rec.Rows {
				names[r.Key] = true
				if get(r.Key, "iters") < 2 || get(r.Key, "ns_per_op") <= 0 || get(r.Key, "assignments") == 0 || get(r.Key, "devices") < 64 {
					t.Fatalf("implausible stats for %q: %+v", r.Key, r)
				}
			}
			for _, want := range []string{"scale-out-128", "scale-in-128", "failstop-storage-64", "moe-expert-64"} {
				if !names[want] {
					t.Fatalf("scenario %q missing from record", want)
				}
			}
		},
		exact:  cell{"scale-out-64", "exact", "moved_bytes"},
		sim:    cell{"scale-out-64", "sim", "simulated_reconfig_seconds"},
		timing: cell{"scale-out-64", "timing", "ns_per_op"},
	},
	"coordinator": {
		sane: func(t *testing.T, rec record, get func(key, metric string) float64) {
			if fmt.Sprint(rec.Params["devices"]) != "32" || fmt.Sprint(rec.Params["seed"]) != fmt.Sprint(experiments.MultiJobSeed) {
				t.Fatalf("scenario params: %v", rec.Params)
			}
			jobs, _ := rec.Params["jobs"].(json.Number).Int64()
			if jobs < 8 || get("cluster", "jobs_completed") < 8 || len(rec.Rows) != 1+int(jobs) {
				t.Fatalf("scenario shape: jobs=%d completed=%v rows=%d", jobs, get("cluster", "jobs_completed"), len(rec.Rows))
			}
			if rec.Rows[0].Exact["policy"] != "fifo" {
				t.Fatalf("policy = %v", rec.Rows[0].Exact["policy"])
			}
			if u := get("cluster", "mean_cluster_utilization"); get("cluster", "makespan_min") <= 0 || u <= 0 || u > 1 {
				t.Fatalf("implausible metrics: %+v", rec.Rows[0])
			}
			if get("cluster", "aggregate_reconfig_seconds") < 0 || get("cluster", "wall_ns_per_run") <= 0 ||
				get("cluster", "timeline_events") == 0 || get("cluster", "plans_validated") == 0 {
				t.Fatalf("implausible metrics: %+v", rec.Rows[0])
			}
			workers, _ := rec.Params["workers"].(json.Number).Int64()
			scale, _ := rec.Params["time_scale_us_per_sim_min"].(json.Number).Float64()
			if get("cluster", "serial_wall_ns") <= 0 || get("cluster", "parallel_wall_ns") <= 0 || workers < 2 || scale <= 0 {
				t.Fatalf("implausible wall-clock block: %+v %v", rec.Rows[0].Info, rec.Params)
			}
			if get("cluster", "trace_matches_sim") != 1 {
				t.Fatal("paced runs did not reproduce the sim-mode trace")
			}
		},
		exact:  cell{"job-03", "exact", "moved_bytes"},
		sim:    cell{"cluster", "sim", "makespan_min"},
		timing: cell{"cluster", "timing", "wall_ns_per_run"},
		headlines: []headlineCase{
			{func(rec *record) { set(rec, cell{"cluster", "exact", "trace_matches_sim"}, false) },
				"coordinator cluster trace_matches_sim"},
			{func(rec *record) { set(rec, cell{"cluster", "info", "speedup"}, speedupFloor-0.01) },
				"coordinator cluster speedup"},
		},
	},
	"placement": {
		sane: func(t *testing.T, rec record, get func(key, metric string) float64) {
			if len(rec.Rows) != 4 {
				t.Fatalf("%d rows, want 4", len(rec.Rows))
			}
			for _, r := range rec.Rows {
				if u := get(r.Key, "mean_cluster_utilization"); get(r.Key, "makespan_min") <= 0 || u <= 0 || u > 1 || get(r.Key, "jobs_completed") < 8 {
					t.Fatalf("implausible row: %+v", r)
				}
			}
		},
		exact: cell{"steady/count", "exact", "moved_bytes"},
		sim:   cell{"bursty/placement", "sim", "mean_cluster_utilization"},
		headlines: []headlineCase{
			{func(rec *record) {
				c := &cells{rec: *rec}
				set(rec, cell{"steady/placement", "exact", "moved_bytes"}, number(c.num("steady/count", "moved_bytes")))
			}, "placement steady/placement moved_bytes"},
			{func(rec *record) {
				c := &cells{rec: *rec}
				set(rec, cell{"steady/placement", "sim", "mean_cluster_utilization"}, c.num("steady/count", "mean_cluster_utilization")-2e-6)
			}, "placement steady/placement mean_cluster_utilization"},
		},
	},
	"hostile": {
		sane: func(t *testing.T, rec record, get func(key, metric string) float64) {
			if len(rec.Rows) != 2*len(experiments.HostileFaultRates) {
				t.Fatalf("%d rows, want %d", len(rec.Rows), 2*len(experiments.HostileFaultRates))
			}
			jobs, _ := rec.Params["jobs"].(json.Number).Int64()
			for _, r := range rec.Rows {
				if done := get(r.Key, "jobs_completed"); get(r.Key, "makespan_min") <= 0 || done < 1 || done > float64(jobs) {
					t.Fatalf("implausible row: %+v", r)
				}
				if strings.HasPrefix(r.Key, "0/") && (get(r.Key, "retries") != 0 || get(r.Key, "requeues") != 0 || get(r.Key, "recovery_seconds") != 0) {
					t.Fatalf("fault-free row charged recovery: %+v", r)
				}
			}
			worst := experiments.HostileFaultRates[len(experiments.HostileFaultRates)-1]
			if on := hostileKey(worst, "retry-on"); get(on, "retries") == 0 || get(on, "retry_bytes") == 0 {
				t.Fatalf("retry-on at the highest rate recorded no retry work")
			}
		},
		exact: cell{"0.02/retry-on", "exact", "retries"},
		sim:   cell{"0.005/retry-off", "sim", "goodput"},
		headlines: []headlineCase{
			{func(rec *record) {
				c := &cells{rec: *rec}
				set(rec, cell{"0.02/retry-on", "exact", "jobs_completed"}, number(c.num("0.02/retry-off", "jobs_completed")))
			}, "hostile 0.02/retry-on jobs_completed"},
			{func(rec *record) { set(rec, cell{"0.02/retry-on", "exact", "retries"}, json.Number("0")) },
				"hostile 0.02/retry-on retries"},
		},
	},
	"dcscale": {
		sane: func(t *testing.T, rec record, get func(key, metric string) float64) {
			if len(rec.Rows) != 4 {
				t.Fatalf("%d rows, want 4", len(rec.Rows))
			}
			for _, r := range rec.Rows {
				var devices, jobs int
				if _, err := fmt.Sscanf(r.Key, "%dx%d", &devices, &jobs); err != nil {
					t.Fatalf("row key %q: %v", r.Key, err)
				}
				if get(r.Key, "jobs_completed") != float64(jobs) {
					t.Fatalf("%s completed %v jobs", r.Key, get(r.Key, "jobs_completed"))
				}
				if get(r.Key, "events") <= 0 || get(r.Key, "plans") <= 0 || get(r.Key, "makespan_min") <= 0 {
					t.Fatalf("implausible row: %+v", r)
				}
				if p50, p90, p99 := get(r.Key, "p50_us"), get(r.Key, "p90_us"), get(r.Key, "p99_us"); !(p50 > 0 && p50 <= p90 && p90 <= p99) {
					t.Fatalf("percentiles not ordered: %+v", r)
				}
			}
		},
		exact: cell{"512x50", "exact", "events"},
		sim:   cell{"2048x200", "sim", "moved_gb"},
		headlines: []headlineCase{
			{func(rec *record) {
				c := &cells{rec: *rec}
				set(rec, cell{"2048x200", "info", "p50_us"}, 3*c.num("512x200", "p50_us")+251)
			}, "dcscale 2048x200 p50_us"},
		},
	},
}

// wantOneFailure asserts check reported exactly one failure, that it
// names the cell, and that it reads as the given class. A tamper that
// removes a cell a headline reads also gets the headline's "not in the
// measured record" lines; those are set aside here and pinned by the
// headline cases.
func wantOneFailure(t *testing.T, what string, fails []string, names, class string) {
	t.Helper()
	var got []string
	for _, f := range fails {
		if !strings.Contains(f, headlineCellGone) {
			got = append(got, f)
		}
	}
	if len(got) != 1 || !strings.HasPrefix(got[0], names) || (class != "" && !strings.Contains(got[0], "("+class)) {
		t.Fatalf("%s: failures %q, want exactly one starting %q of class %q", what, got, names, class)
	}
}

const headlineCellGone = "not in the measured record (headline)"

// TestKinds walks the kinds table: every kind emits, parses back under
// the one schema, looks sane, passes -check against itself — and then
// each way of breaking a record fails the one checker with a line that
// names the cell.
func TestKinds(t *testing.T) {
	if len(kindCases) != len(kinds) {
		t.Fatalf("%d kinds, %d test cases", len(kinds), len(kindCases))
	}
	dir := t.TempDir()
	recs := map[string]record{}
	for _, k := range kinds {
		rec, err := measureRecord(k, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_"+k.name+"_x.json")
		if err := write(rec, path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if recs[k.name], err = decode(data); err != nil {
			t.Fatalf("%s: emitted record does not parse: %v", k.name, err)
		}
	}
	// The coordinator's speedup floor reads two wall-clock makespans, and
	// other packages' tests load this machine while they are taken. The
	// table tests the rule, not the machine: a speedup under the floor is
	// let through here (and pinned to 1 in the record the cases below
	// tamper); that it fails the gate is a headline case.
	const loadSensitive = "coordinator cluster speedup:"
	n, fails, err := runCheck(dir, noTimingTol, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fails {
		if !strings.Contains(f, loadSensitive) {
			t.Fatalf("fresh baselines: failures %v", fails)
		}
	}
	if n != len(kinds) {
		t.Fatalf("fresh baselines: %d checked, want %d", n, len(kinds))
	}
	coord := recs["coordinator"] // shares its rows with the map's copy
	set(&coord, cell{"cluster", "info", "speedup"}, 1.0)

	for _, k := range kinds {
		tc, rec := kindCases[k.name], recs[k.name]
		t.Run(k.name, func(t *testing.T) {
			if rec.Schema != schema || rec.Kind != k.name || rec.Env.GoVersion == "" || rec.Env.MaxProcs < 1 || rec.Env.WallNs <= 0 {
				t.Fatalf("envelope: %+v", rec)
			}
			assertSnakeCase(t, rec)
			reader := &cells{rec: rec}
			tc.sane(t, rec, reader.num)
			if len(reader.missing) > 0 {
				t.Fatalf("cells missing from the record: %v", reader.missing)
			}
			prefix := func(c cell) string { return k.name + " " + c.key + " " + c.metric + ":" }

			if fails := check(k, rec, rec, checkTolerance); len(fails) != 0 {
				t.Fatalf("record against itself: %v", fails)
			}

			base := clone(t, rec)
			set(&base, tc.exact, number(reader.num(tc.exact.key, tc.exact.metric)+4096))
			wantOneFailure(t, "exact cell", check(k, rec, base, noTimingTol), prefix(tc.exact), "exact")

			base = clone(t, rec)
			set(&base, tc.sim, reader.num(tc.sim.key, tc.sim.metric)+10*simEpsilon)
			wantOneFailure(t, "sim cell beyond epsilon", check(k, rec, base, noTimingTol), prefix(tc.sim), "sim")
			set(&base, tc.sim, reader.num(tc.sim.key, tc.sim.metric)+simEpsilon/10)
			if fails := check(k, rec, base, noTimingTol); len(fails) != 0 {
				t.Fatalf("sim cell within epsilon: %v", fails)
			}

			base = clone(t, rec)
			base.Rows = base.Rows[1:]
			wantOneFailure(t, "row added to the tree", check(k, rec, base, noTimingTol),
				k.name+" "+rec.Rows[0].Key+": row measured but not in the baseline", "")
			wantOneFailure(t, "row deleted from the tree", check(k, base, rec, noTimingTol),
				k.name+" "+rec.Rows[0].Key+": row in the baseline but not measured", "")

			base = clone(t, rec)
			delete(base.row(tc.sim.key).Sim, tc.sim.metric)
			wantOneFailure(t, "metric the baseline lacks", check(k, rec, base, noTimingTol), prefix(tc.sim), "sim")
			wantOneFailure(t, "metric the tree stopped measuring", check(k, base, rec, noTimingTol), prefix(tc.sim), "sim")

			if tc.timing != (cell{}) {
				ns := reader.num(tc.timing.key, tc.timing.metric)
				for _, c := range []struct {
					what           string
					measured, base float64
					fails          bool
				}{
					{"timing 50% above baseline, tolerance 100%", 1.5 * ns, ns, false},
					{"timing 3x baseline, tolerance 100%", 3 * ns, ns, true},
					{"timing far below baseline", ns / 10, ns, false},
					{"measured timing zero", 0, ns, true},
					{"baseline timing zero", ns, 0, true},
					{"measured timing negative", -ns, ns, true},
					{"measured timing infinite", math.Inf(1), ns, true},
					{"baseline timing NaN", ns, math.NaN(), true},
				} {
					m, b := clone(t, rec), clone(t, rec)
					set(&m, tc.timing, c.measured)
					set(&b, tc.timing, c.base)
					fails := check(k, m, b, checkTolerance)
					if !c.fails && len(fails) != 0 {
						t.Fatalf("%s: %v", c.what, fails)
					}
					if c.fails {
						wantOneFailure(t, c.what, fails, prefix(tc.timing), "timing")
					}
				}
			}

			if (k.headline == nil) != (len(tc.headlines) == 0) {
				t.Fatalf("headline and its test cases do not go together")
			}
			for _, h := range tc.headlines {
				broken := clone(t, rec)
				h.edit(&broken)
				wantOneFailure(t, "headline", check(k, broken, broken, noTimingTol), h.names, "headline")
			}
			if k.headline != nil {
				// A headline whose cells are gone says so; it does not pass
				// on whatever the predicate makes of a NaN.
				empty := clone(t, rec)
				empty.Rows = nil
				fails := check(k, empty, empty, noTimingTol)
				if len(fails) == 0 {
					t.Fatal("headline passed over a record without its cells")
				}
				for _, f := range fails {
					if !strings.Contains(f, headlineCellGone) {
						t.Fatalf("headline over a record without its cells: %q", f)
					}
				}
			}
		})
	}
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// assertSnakeCase: every params and metric name of every kind is
// snake_case (the dcscale rows once serialised as Devices, P50us).
func assertSnakeCase(t *testing.T, rec record) {
	t.Helper()
	var all []string
	all = append(all, names(rec.Params, nil)...)
	for _, r := range rec.Rows {
		all = append(all, names(r.Exact, nil)...)
		for _, class := range []map[string]float64{r.Sim, r.Timing, r.Info} {
			all = append(all, names(class, nil)...)
		}
	}
	for _, name := range all {
		if !snakeCase.MatchString(name) {
			t.Fatalf("%s: name %q is not snake_case", rec.Kind, name)
		}
	}
}

// TestCommittedBaselines: the newest committed record of every kind is
// in the one envelope, exactly as -record writes it, and holds rows.
func TestCommittedBaselines(t *testing.T) {
	for _, k := range kinds {
		matches, err := filepath.Glob(filepath.Join("..", "..", "BENCH_"+k.name+"_*.json"))
		if err != nil || len(matches) == 0 {
			t.Fatalf("%s: no committed baseline (%v)", k.name, err)
		}
		sort.Strings(matches)
		data, err := os.ReadFile(matches[len(matches)-1])
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decode(data)
		if err != nil {
			t.Fatalf("%s: %v", matches[len(matches)-1], err)
		}
		if rec.Kind != k.name || len(rec.Rows) == 0 {
			t.Fatalf("%s: kind %q with %d rows", matches[len(matches)-1], rec.Kind, len(rec.Rows))
		}
		assertSnakeCase(t, rec)
		if again, err := encode(rec); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s is not in the form -record writes (err %v)", matches[len(matches)-1], err)
		}
	}
}

// TestCheckRefusesWhatItCannotCompare: no baselines, another schema, a
// record filed under the wrong kind, duplicate rows and non-scalar
// exact cells are errors, not passes.
func TestCheckRefusesWhatItCannotCompare(t *testing.T) {
	if _, _, err := runCheck(t.TempDir(), noTimingTol, time.Millisecond); err == nil {
		t.Fatal("empty baseline dir accepted")
	}
	for name, body := range map[string]string{
		"old schema":   `{"schema": "tenplex-bench/placement/v1", "rows": []}`,
		"wrong kind":   `{"schema": "` + schema + `", "kind": "hostile", "rows": []}`,
		"duplicate":    `{"schema": "` + schema + `", "kind": "placement", "rows": [{"key": "a"}, {"key": "a"}]}`,
		"vector exact": `{"schema": "` + schema + `", "kind": "placement", "rows": [{"key": "a", "exact": {"x": [1]}}]}`,
		"not json":     `{"schema": `,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "BENCH_placement_x.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := runCheck(dir, noTimingTol, time.Millisecond); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
