package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-table test pins the rendered cluster tables to the fixtures
// in testdata/, byte for byte: the same scenarios under the same
// options must keep rendering the same numbers. dcscale's latency
// columns and its flatness note are machine-dependent, so its fixture
// masks them. A PR that changes a table on purpose regenerates the
// fixtures with
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenTables
//
// and the diff is reviewed like any other behavioural change.

var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenTables(t *testing.T) {
	for _, tc := range []struct {
		id    string
		table func() (Table, error)
	}{
		{"multijob", func() (Table, error) { _, tab := MultiJobCluster(); return tab, nil }},
		{"policies", func() (Table, error) { _, tab, err := Policies().Run(); return tab, err }},
		{"placement", func() (Table, error) { _, tab, err := Placement().Run(); return tab, err }},
		{"hostile", func() (Table, error) { _, tab, err := Hostile().Run(); return tab, err }},
		{"dcscale", func() (Table, error) { runs, err := dcscaleSweep(); return maskLatency(DCScale().Table(runs)), err }},
	} {
		t.Run(tc.id, func(t *testing.T) {
			if tc.id == "dcscale" && testing.Short() {
				t.Skip("dcscale full sweep skipped in -short mode")
			}
			tab, err := tc.table()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.id+".golden")
			got := tab.Render()
			if updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (set UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s table drifted from %s.\n--- got ---\n%s--- want ---\n%s", tc.id, path, got, want)
			}
		})
	}
}

// maskLatency blanks the machine-dependent cells of a dcscale table: the
// per-decision latency columns and the flatness note that quotes them.
func maskLatency(tab Table) Table {
	out := tab
	out.Rows = nil
	for _, r := range tab.Rows {
		r = append([]string(nil), r...)
		for i, c := range tab.Columns {
			if strings.HasSuffix(c, "-us") {
				r[i] = "~"
			}
		}
		out.Rows = append(out.Rows, r)
	}
	out.Notes = nil
	for _, n := range tab.Notes {
		if strings.HasPrefix(n, "flatness:") {
			n = "flatness: ~"
		}
		out.Notes = append(out.Notes, n)
	}
	return out
}
