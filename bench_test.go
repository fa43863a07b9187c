// Benchmarks regenerating every table and figure of the paper's
// evaluation. Run all of them with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the full experiment per iteration and reports
// a headline metric from the result as a custom unit, so the bench
// output doubles as the reproduction record (see EXPERIMENTS.md).
package tenplex

import (
	"testing"

	"tenplex/internal/core"
	"tenplex/internal/experiments"
)

// run runs e and fails the benchmark on an error.
func run(b *testing.B, e experiments.Experiment) experiments.Runs {
	runs, _, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

func BenchmarkTab01SystemComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if runs := run(b, experiments.Tab1SystemComparison()); len(runs) != 11 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig02aDatasetConsistency(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		runs := run(b, experiments.Fig2aDatasetConsistency())
		last := runs[len(runs)-1].Key
		gap = runs.Num(last, "static_loss") - runs.Num(last, "dynamic_loss")
	}
	b.ReportMetric(gap, "loss-overfit-gap")
}

func BenchmarkFig02bBatchConsistency(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		runs := run(b, experiments.Fig2bBatchConsistency())
		last := runs[len(runs)-1].Key
		gap = runs.Num(last, "dynamic_loss") - runs.Num(last, "static_loss")
	}
	b.ReportMetric(gap, "loss-divergence-gap")
}

func BenchmarkFig03ParallelizationThroughput(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		var best, worst float64
		for _, c := range run(b, experiments.Fig3ParallelizationSweep()) {
			if c.Labels[0] != "gpt3-2.7b" || c.Exact["feasible"] != true {
				continue
			}
			if best == 0 {
				best = c.Num("samples_sec")
			}
			worst = c.Num("samples_sec")
		}
		spread = best / worst
	}
	b.ReportMetric(spread, "best/worst-x")
}

func BenchmarkFig09ElasticConvergence(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		runs := run(b, experiments.Fig9ElasticConvergence(1))
		reduction = 1 - runs.Num("Tenplex", "min_to_target")/runs.Num("Tenplex-DP", "min_to_target")
	}
	b.ReportMetric(reduction*100, "%time-saved-vs-DP")
}

func BenchmarkFig10Redeployment(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = run(b, experiments.Fig10Redeployment()).Num("6.7B", "central_over")
	}
	b.ReportMetric(ratio, "central/tenplex-6.7B-x")
}

func BenchmarkFig11FailureRecovery(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		runs := run(b, experiments.Fig11FailureRecovery())
		frac = runs.Num("8", "tenplex_s") / runs.Num("8", "baseline_s")
	}
	b.ReportMetric(frac*100, "%of-baseline-8fail")
}

func BenchmarkFig12ReconfigOverhead(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		runs := run(b, experiments.Fig12ReconfigOverhead())
		saved = 1 - runs.Num("16 to 8", "tenplex_s")/runs.Num("16 to 8", "deepspeed_s")
	}
	b.ReportMetric(saved*100, "%saved-vs-deepspeed-16to8")
}

func BenchmarkFig13HorovodThroughput(b *testing.B) {
	var tenplex float64
	for i := 0; i < b.N; i++ {
		tenplex = run(b, experiments.Fig13HorovodThroughput()).Num("Tenplex", "samples_sec")
	}
	b.ReportMetric(tenplex, "tenplex-samples/s")
}

func BenchmarkFig14ParallelizationType(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		runs := run(b, experiments.Fig14ParallelizationType())
		worst = 0
		for _, dim := range []string{"data", "pipeline", "tensor"} {
			if r := runs.Num(dim+"/6.7B", "central_s") / runs.Num(dim+"/6.7B", "tenplex_s"); r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "central/tenplex-6.7B-x")
}

func BenchmarkFig15ClusterSize(b *testing.B) {
	var dpGrowth float64
	for i := 0; i < b.N; i++ {
		runs := run(b, experiments.Fig15ClusterSize())
		dpGrowth = runs.Num("data/16 to 32", "tenplex_s") / runs.Num("data/4 to 8", "tenplex_s")
	}
	b.ReportMetric(dpGrowth, "dp-time-growth-x")
}

func BenchmarkAblations(b *testing.B) {
	var worstSaving float64
	for i := 0; i < b.N; i++ {
		worstSaving = 1
		for _, c := range run(b, experiments.Ablations()) {
			if s := 1 - c.Num("with")/c.Num("without"); s < worstSaving {
				worstSaving = s
			}
		}
	}
	b.ReportMetric(worstSaving*100, "%min-saving")
}

func BenchmarkFig16Convergence(b *testing.B) {
	var maxDev float64
	for i := 0; i < b.N; i++ {
		maxDev = 0
		for _, c := range run(b, experiments.Fig16Convergence()) {
			maxDev = max(maxDev, c.Num("max_deviation"))
		}
	}
	b.ReportMetric(maxDev, "max-loss-deviation")
}

// BenchmarkReconfigPlannerScenarios runs the shared 64- and 128-device
// reconfiguration planning scenarios (see EXPERIMENTS.md), reporting
// the plan's moved gigabytes as the headline metric. Plan generation is
// pure metadata work; these benches pin its cost at production scale.
func BenchmarkReconfigPlannerScenarios(b *testing.B) {
	for _, sc := range experiments.PlannerScenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			var plan *core.Plan
			for i := 0; i < b.N; i++ {
				var err error
				plan, err = core.GeneratePlan(sc.From, sc.To, sc.Opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(plan.Stats(sc.Topo).MovedBytes)/1e9, "moved-GB")
		})
	}
}
