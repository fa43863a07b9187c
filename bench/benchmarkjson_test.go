package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the tables in metrics.go
// (bench -benchmark-json); this holds the committed file to them and to
// the limits the PR driver refuses a file for.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var got, want map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with: bash bench/run.sh -benchmark-json > BENCHMARK.json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the contract", u, n)
		}
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("why of %s has %d characters, contract allows 1 to 200", w.name, len(w.why))
		}
		for _, m := range append([]string{w.primary}, w.native...) {
			findE2E(m) // panics on a name that is not an end-to-end metric
		}
		if p := findE2E(w.primary); !w.measures(w.primary) || (p.unit != "s" && p.unit != "ms") {
			t.Errorf("primary %s of %s must be a timing the workload measures", w.primary, w.name)
		}
	}
	if n := len(e2eNames(true)); n < 1 || n > 16 {
		t.Errorf("%d gated end-to-end metrics, contract allows 1 to 16", n)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if !d.gated {
			continue // listed, and checked, with the per-layer metrics
		}
		check(d.name, d.unit)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", d.bound, d.name)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s")
	}
	if !hasSetup {
		t.Error("no setup_s in s")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, d := range perLayer {
		check(d.name, d.unit)
	}
}
