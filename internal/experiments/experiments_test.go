package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tenplex/internal/parallel"
)

// Every test here asserts the *qualitative shape* the paper reports:
// who wins, by roughly what factor, where crossovers fall. Absolute
// numbers differ (our substrate is a simulator, not the authors'
// testbed) and are recorded in EXPERIMENTS.md.

// run runs e and fails the test on an error.
func run(t *testing.T, e Experiment) (Runs, Table) {
	t.Helper()
	runs, table, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return runs, table
}

func TestTab1TenplexRow(t *testing.T) {
	e := Tab1SystemComparison()
	runs, table := run(t, e)
	// col reads a system's fact under its column header.
	col := func(c Cells, header string) string { return c.Labels[slices.Index(e.Labels, header)] }
	last := runs[len(runs)-1]
	if last.Key != "Tenplex" || col(last, "overhead") != "minimal state" {
		t.Fatalf("tenplex row wrong: %+v", last)
	}
	if col(last, "dynDP") != "yes" || col(last, "dynPP") != "yes" || col(last, "dynTP") != "yes" {
		t.Fatal("tenplex must support all dynamic dimensions")
	}
	if len(table.Rows) != 11 {
		t.Fatalf("table has %d rows", len(table.Rows))
	}
	// Only Tenplex reaches minimal state.
	for _, c := range runs[:len(runs)-1] {
		if col(c, "overhead") == "minimal state" {
			t.Fatalf("%s also claims minimal state", c.Key)
		}
	}
	if !strings.Contains(table.Render(), "Tenplex") {
		t.Fatal("render missing rows")
	}
}

func TestFig2aOverfitAfterInconsistentAccess(t *testing.T) {
	runs, _ := run(t, Fig2aDatasetConsistency())
	var statAfter, dynAfter float64
	n := 0
	for step, c := range runs {
		if step >= fig2aEventStep {
			statAfter += c.Num("static_loss")
			dynAfter += c.Num("dynamic_loss")
			n++
		}
	}
	if n == 0 || dynAfter/float64(n) >= statAfter/float64(n) {
		t.Fatalf("dynamic run should overfit below static: dyn %.4f vs stat %.4f",
			dynAfter/float64(n), statAfter/float64(n))
	}
	// Before the event both runs are identical.
	for _, c := range runs[:fig2aEventStep] {
		if math.Abs(c.Num("static_loss")-c.Num("dynamic_loss")) > 1e-12 {
			t.Fatal("runs diverge before the event")
		}
	}
}

func TestFig2bDivergenceWithConstantDeviceBatch(t *testing.T) {
	runs, _ := run(t, Fig2bBatchConsistency())
	var statAfter, dynAfter float64
	n := 0
	for step, c := range runs {
		if step >= fig2bEventStep+5 {
			statAfter += c.Num("static_loss")
			dynAfter += c.Num("dynamic_loss")
			n++
		}
	}
	if dynAfter/float64(n) <= statAfter/float64(n)*1.05 {
		t.Fatalf("inconsistent batch size should diverge upward: dyn %.4f vs stat %.4f",
			dynAfter/float64(n), statAfter/float64(n))
	}
}

func TestFig3SweepShape(t *testing.T) {
	runs, table := run(t, Fig3ParallelizationSweep())
	if len(table.Rows) == 0 {
		t.Fatal("empty sweep")
	}
	// feasible is a model's feasible configurations, fastest first.
	feasible := func(modelName string) Runs {
		var out Runs
		for _, c := range runs {
			if c.Labels[0] == modelName && c.Exact["feasible"] == true {
				out = append(out, c)
			}
		}
		return out
	}
	check := func(modelName string) {
		feas := feasible(modelName)
		if len(feas) < 5 {
			t.Fatalf("%s: only %d feasible configs", modelName, len(feas))
		}
		best, worst := feas[0], feas[len(feas)-1]
		if best.Num("samples_sec") < 10*worst.Num("samples_sec") {
			t.Fatalf("%s: spread %.1fx < 10x", modelName, best.Num("samples_sec")/worst.Num("samples_sec"))
		}
		if worst.Labels[1] != "(T=16,P=1,D=1)" {
			t.Fatalf("%s: worst = %s, want (T=16,P=1,D=1)", modelName, worst.Labels[1])
		}
	}
	check("gpt3-2.7b")
	check("bert-large-340m")
	// (2,4,2) in the GPT top 3.
	rank := -1
	for i, c := range feasible("gpt3-2.7b") {
		if c.Labels[1] == "(T=2,P=4,D=2)" {
			rank = i
		}
	}
	if rank < 0 || rank > 2 {
		t.Fatalf("(2,4,2) rank = %d for GPT-3 2.7B", rank)
	}
}

func TestFig9ElasticShape(t *testing.T) {
	runs, table := run(t, Fig9ElasticConvergence(1))
	if len(runs) != 3 {
		t.Fatalf("%d systems", len(runs))
	}
	tenplex, dp, torch := runs[0], runs[1], runs[2]
	if tenplex.Key != "Tenplex" || dp.Key != "Tenplex-DP" {
		t.Fatalf("row order: %s, %s, %s", tenplex.Key, dp.Key, torch.Key)
	}
	// Tenplex makes the most progress; DP-only systems pause at 4 GPUs.
	if tenplex.Num("final_steps") <= dp.Num("final_steps") || tenplex.Num("final_steps") <= torch.Num("final_steps") {
		t.Fatalf("tenplex %0.f steps should lead (dp %0.f, torch %0.f)",
			tenplex.Num("final_steps"), dp.Num("final_steps"), torch.Num("final_steps"))
	}
	if tenplex.Num("paused_min") != 0 {
		t.Fatalf("tenplex paused %.0f min", tenplex.Num("paused_min"))
	}
	if dp.Num("paused_min") <= 0 || torch.Num("paused_min") <= 0 {
		t.Fatal("DP-only systems must pause at 4 GPUs")
	}
	// Tenplex reaches the slowest system's final step substantially
	// earlier (paper: 46% less time; accept 25–65%).
	slowest := math.Max(dp.Num("min_to_target"), torch.Num("min_to_target"))
	red := 1 - tenplex.Num("min_to_target")/slowest
	if red < 0.25 || red > 0.65 {
		t.Fatalf("time reduction %.0f%%, want 25–65%% (tenplex %.0f min, slowest %.0f min)",
			red*100, tenplex.Num("min_to_target"), slowest)
	}
	// Torch reconfigures slower than Tenplex overall.
	if torch.Num("reconfig_s") <= tenplex.Num("reconfig_s") {
		t.Fatalf("torch downtime %.0fs should exceed tenplex %.0fs", torch.Num("reconfig_s"), tenplex.Num("reconfig_s"))
	}
	if len(table.Rows) != 3 {
		t.Fatal("table rows")
	}
	// Perplexity mapping is monotone decreasing.
	if PerplexityAt(0) <= PerplexityAt(10000) {
		t.Fatal("perplexity curve not decreasing")
	}
}

func TestFig10RedeploymentShape(t *testing.T) {
	runs, _ := run(t, Fig10Redeployment())
	if len(runs) != 3 {
		t.Fatalf("%d rows", len(runs))
	}
	for i, c := range runs {
		// Paper: Central ≈ 1.9–2.1× slower; accept 1.5–5×.
		if over := c.Num("central_over"); over < 1.5 || over > 5 {
			t.Fatalf("%s: central overhead %.1fx outside [1.5,5]", c.Key, over)
		}
		if i > 0 && c.Num("tenplex_s") <= runs[i-1].Num("tenplex_s") {
			t.Fatalf("redeployment time must grow with model size: %+v", runs)
		}
	}
}

func TestFig11FailureRecoveryShape(t *testing.T) {
	runs, _ := run(t, Fig11FailureRecovery())
	if len(runs) != 3 {
		t.Fatalf("%d rows", len(runs))
	}
	for _, c := range runs[:2] { // 4 and 8 failures: replica survives
		if c.Exact["via"] != "replica" {
			t.Fatalf("%s failures should recover from a replica", c.Key)
		}
		// Paper: ≈ 5% of baseline; accept < 15%.
		if c.Num("tenplex_s") > 0.15*c.Num("baseline_s") {
			t.Fatalf("%s failures: tenplex %.1fs not << baseline %.1fs", c.Key, c.Num("tenplex_s"), c.Num("baseline_s"))
		}
	}
	last := runs[2] // 12 failures: no replica
	if last.Exact["via"] == "replica" {
		t.Fatal("12 failures should exhaust replicas")
	}
	if last.Num("tenplex_s") >= last.Num("baseline_s") {
		t.Fatal("tenplex should keep a small edge even via checkpoint")
	}
	if last.Num("tenplex_s") < 0.5*last.Num("baseline_s") {
		t.Fatalf("checkpoint-path recovery should be the same order as baseline: %.1f vs %.1f",
			last.Num("tenplex_s"), last.Num("baseline_s"))
	}
}

func TestFig12ReconfigShape(t *testing.T) {
	runs, _ := run(t, Fig12ReconfigOverhead())
	if len(runs) != 2 {
		t.Fatalf("%d rows", len(runs))
	}
	for _, c := range runs {
		if c.Num("tenplex_s") >= c.Num("deepspeed_s") || c.Num("tenplex_s") >= c.Num("singularity_s") {
			t.Fatalf("%s: tenplex %.1fs must beat deepspeed %.1fs and singularity %.1fs",
				c.Key, c.Num("tenplex_s"), c.Num("deepspeed_s"), c.Num("singularity_s"))
		}
	}
	// Scale-in saves more than scale-out vs DeepSpeed (paper: 64% vs
	// 24% reduction), because a replica already exists at the target.
	redOut := 1 - runs.Num("8 to 16", "tenplex_s")/runs.Num("8 to 16", "deepspeed_s")
	redIn := 1 - runs.Num("16 to 8", "tenplex_s")/runs.Num("16 to 8", "deepspeed_s")
	if redIn <= redOut {
		t.Fatalf("scale-in reduction %.0f%% should exceed scale-out %.0f%%", redIn*100, redOut*100)
	}
}

func TestFig13ThroughputShape(t *testing.T) {
	runs, _ := run(t, Fig13HorovodThroughput())
	if len(runs) != 3 {
		t.Fatalf("%d rows", len(runs))
	}
	horovod, elastic, tenplex := runs[0].Num("samples_sec"), runs[1].Num("samples_sec"), runs[2].Num("samples_sec")
	// Tenplex ≈ Horovod (within 3%), Elastic below both.
	if tenplex < 0.97*horovod {
		t.Fatalf("tenplex %.0f should be within 3%% of horovod %.0f", tenplex, horovod)
	}
	if elastic >= tenplex {
		t.Fatal("horovod-elastic should pay more overhead than tenplex")
	}
	// Magnitude sanity: hundreds of samples/s like the paper's 417–437.
	if horovod < 200 || horovod > 900 {
		t.Fatalf("horovod %.0f samples/s outside plausible range", horovod)
	}
}

func TestFig14ParallelizationTypeShape(t *testing.T) {
	runs, _ := run(t, Fig14ParallelizationType())
	if len(runs) != 9 {
		t.Fatalf("%d rows", len(runs))
	}
	byDim := map[string]Runs{}
	for _, c := range runs {
		byDim[c.Labels[0]] = append(byDim[c.Labels[0]], c)
	}
	for dim, rs := range byDim {
		for i, c := range rs {
			if c.Num("central_s") <= c.Num("tenplex_s") {
				t.Fatalf("%s %s: central %.1f not slower than tenplex %.1f", dim, c.Labels[1], c.Num("central_s"), c.Num("tenplex_s"))
			}
			if i > 0 && c.Num("tenplex_s") <= rs[i-1].Num("tenplex_s") {
				t.Fatalf("%s: time must grow with model size", dim)
			}
		}
		// Paper: at 6.7B Central is 3.5–4× slower; accept 2–6×.
		big := rs[2]
		ratio := big.Num("central_s") / big.Num("tenplex_s")
		if ratio < 2 || ratio > 6 {
			t.Fatalf("%s 6.7B: central/tenplex = %.1fx outside [2,6]", dim, ratio)
		}
	}
}

func TestFig15ClusterSizeShape(t *testing.T) {
	runs, _ := run(t, Fig15ClusterSize())
	if len(runs) != 9 {
		t.Fatalf("%d rows", len(runs))
	}
	// secs and gb read one dimension's cells at 4 to 8, 8 to 16, 16 to 32.
	series := func(dim, cell string) [3]float64 {
		var out [3]float64
		for i, n := range []int{4, 8, 16} {
			out[i] = runs.Num(fmt.Sprintf("%s/%d to %d", dim, n, 2*n), cell)
		}
		return out
	}
	dpGB, dp, pp, tp := series("data", "moved_gb"), series("data", "tenplex_s"), series("pipeline", "tenplex_s"), series("tensor", "tenplex_s")
	// DP: moved bytes grow linearly with the degree (the paper's
	// underlying effect), and time never shrinks.
	if !(dpGB[0] < dpGB[1] && dpGB[1] < dpGB[2]) {
		t.Fatalf("DP moved bytes should grow: %v", dpGB)
	}
	if dpGB[2] < 3.5*dpGB[0] {
		t.Fatalf("DP bytes should grow ~linearly: %v", dpGB)
	}
	if dp[1] < 0.95*dp[0] || dp[2] < 0.95*dp[1] {
		t.Fatalf("DP times should not shrink: %v", dp)
	}
	// PP and TP: time decreases with device count.
	if !(pp[0] > pp[1] && pp[1] > pp[2]) {
		t.Fatalf("PP times should shrink: %v", pp)
	}
	if !(tp[0] > tp[1] && tp[1] > tp[2]) {
		t.Fatalf("TP times should shrink: %v", tp)
	}
	// TP costs more than PP at the same scale (split/merge work).
	for i := range tp {
		if tp[i] <= pp[i] {
			t.Fatalf("TP (%.1fs) should exceed PP (%.1fs) at step %d", tp[i], pp[i], i)
		}
	}
}

func TestFig16ConvergenceUnaffected(t *testing.T) {
	runs, _ := run(t, Fig16Convergence())
	if len(runs) != 3 {
		t.Fatalf("%d series", len(runs))
	}
	for _, dim := range fig16Dims {
		s := dim.series()
		if len(s.NoChange) != fig16Steps || len(s.Increase) != fig16Steps || len(s.Decrease) != fig16Steps {
			t.Fatalf("%s: wrong series length", dim.name)
		}
		// Before the event all runs are identical.
		for i := 0; i < fig16EventStep; i++ {
			if s.NoChange[i] != s.Increase[i] || s.NoChange[i] != s.Decrease[i] {
				t.Fatalf("%s: runs diverge before the event at step %d", dim.name, i)
			}
		}
		// After the event, convergence is unaffected: deviations stay
		// at floating-point-reassociation scale, far below the loss.
		if dev := runs.Num(dim.name, "max_deviation"); dev > 1e-6 || dev != s.maxDeviation() {
			t.Fatalf("%s: max deviation %.2e too large (series %.2e)", dim.name, dev, s.maxDeviation())
		}
		// And training actually converges.
		if s.NoChange[fig16Steps-1] >= s.NoChange[0] {
			t.Fatalf("%s: no convergence", dim.name)
		}
	}
}

func TestTableRender(t *testing.T) {
	table := Table{
		ID: "x", Title: "t",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	out := table.Render()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestConfigsUsedAreValid(t *testing.T) {
	// The Fig. 9 configuration trajectory from the paper must validate.
	m := gptWithOpt("1.3B")
	for _, c := range []parallel.Config{{TP: 2, PP: 4, DP: 2}, {TP: 2, PP: 4, DP: 1}, {TP: 2, PP: 2, DP: 1}} {
		if err := c.Validate(c.WorldSize(), m); err != nil {
			t.Fatal(err)
		}
	}
}
