package experiments

import (
	"testing"

	"tenplex/internal/cluster"
)

func TestAblationAlignmentSaves(t *testing.T) {
	c, err := ablationAlignment(cluster.OnPrem16(), gptWithOpt("1.3B"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Num("with") >= c.Num("without") {
		t.Fatalf("alignment does not help: %.2f vs %.2f GB", c.Num("with"), c.Num("without"))
	}
	if c.Num("with") > 0.7*c.Num("without") {
		t.Fatalf("alignment saving too small: %.2f of %.2f GB", c.Num("with"), c.Num("without"))
	}
}

func TestAblationLocalitySaves(t *testing.T) {
	c, err := ablationLocality(cluster.OnPrem16(), gptWithOpt("1.3B"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Num("with") != 0 {
		t.Fatalf("locality-aware plan still crossed workers: %.2f GB", c.Num("with"))
	}
	if c.Num("without") <= 0 {
		t.Fatal("naive plan should cross workers")
	}
}

func TestAblationRangeQueriesSave(t *testing.T) {
	c, err := ablationRangeQueries(cluster.OnPrem16(), gptWithOpt("1.3B"))
	if err != nil {
		t.Fatal(err)
	}
	// A TP doubling needs exactly half of each source sub-tensor:
	// whole-tensor fetches move ~2x the bytes.
	if c.Num("without") < 1.8*c.Num("with") {
		t.Fatalf("range queries should halve traffic: %.2f vs %.2f GB", c.Num("with"), c.Num("without"))
	}
}

func TestAblationsTable(t *testing.T) {
	runs, table := run(t, Ablations())
	if len(runs) != 3 || len(table.Rows) != 3 {
		t.Fatalf("%d ablations", len(runs))
	}
	for _, c := range runs {
		if c.Num("with") >= c.Num("without") {
			t.Fatalf("%s: no saving (%.2f vs %.2f)", c.Key, c.Num("with"), c.Num("without"))
		}
	}
}
