package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden-table test pins the table of every experiment in All, the
// paper's and the cluster ones, to testdata/<id>.golden, byte for byte:
// the same experiments must keep rendering the same numbers. An
// experiment without a fixture fails, and so does a fixture no
// experiment renders. dcscale's latency columns and its flatness note
// are machine-dependent, so its fixture masks them. A change that moves
// a table on purpose regenerates the fixtures with
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGoldenTables
//
// and the diff is reviewed like any other behavioural change.

var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

func TestGoldenTables(t *testing.T) {
	pinned := map[string]bool{}
	for _, e := range All() {
		path := filepath.Join("testdata", e.ID+".golden")
		pinned[path] = true
		t.Run(e.ID, func(t *testing.T) {
			var tab Table
			var err error
			if e.ID == "dcscale" {
				if testing.Short() {
					t.Skip("dcscale full sweep skipped in -short mode")
				}
				var runs Runs
				runs, err = dcscaleSweep()
				tab = maskLatency(e.Table(runs))
			} else {
				_, tab, err = e.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
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
				t.Fatalf("%s table drifted from %s.\n--- got ---\n%s--- want ---\n%s", e.ID, path, got, want)
			}
		})
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtures {
		if !pinned[f] {
			t.Errorf("%s pins a table no experiment renders", f)
		}
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
