package core_test

import (
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/experiments"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// BenchmarkGeneratePlanFullScale measures plan generation for a real
// paper-scale reconfiguration: GPT-3 6.7B with Adam state (~1200 state
// tensors), (4,2,1) -> (8,2,1) on 16 devices. Plan generation is pure
// metadata work and must stay cheap relative to the data movement it
// orchestrates.
func BenchmarkGeneratePlanFullScale(b *testing.B) {
	m := model.GPT3_6B7().WithAdam()
	topo := cluster.OnPrem16()
	from, err := parallel.BuildPTC(m, parallel.Config{TP: 4, PP: 2, DP: 1}, topo.FirstN(8))
	if err != nil {
		b.Fatal(err)
	}
	to, err := parallel.BuildPTC(m, parallel.Config{TP: 8, PP: 2, DP: 1}, topo.FirstN(16))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.Assignments) == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkGeneratePlanScenarios measures plan generation for the
// shared 64- and 128-device reconfiguration scenarios (scale-out,
// scale-in, redeployment, fail-stop recovery with StorageFallback, and
// an MoE expert-parallel reshape). The same scenarios back
// tenplex-bench's planner record (-record planner); see EXPERIMENTS.md.
func BenchmarkGeneratePlanScenarios(b *testing.B) {
	for _, sc := range experiments.PlannerScenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan, err := core.GeneratePlan(sc.From, sc.To, sc.Opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(plan.Assignments)+len(plan.Kept) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// BenchmarkPlanChange128 measures what the coordinator pays to price one
// candidate change at 128 devices: not GeneratePlan alone but the
// functions it runs, BuildPTC then job.PlanTo and Price (AlignDevices,
// GeneratePlan, Validate, Stats, netsim.Simulate), against a deployed
// source whose index is already compiled, as it is from the second
// candidate on. tenplex-bench's planner record files the same call as
// plan_change_ns_per_op.
func BenchmarkPlanChange128(b *testing.B) {
	for _, sc := range experiments.PlannerScenarios() {
		if sc.Devices != 128 {
			continue
		}
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sc.PlanChange(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildPTCFullScale(b *testing.B) {
	m := model.GPT3_6B7().WithAdam()
	topo := cluster.OnPrem16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 4, DP: 2}, topo.FirstN(16)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlignDevices(b *testing.B) {
	m := model.GPT3XL().WithAdam()
	topo := cluster.OnPrem16()
	from, _ := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 4, DP: 1}, topo.FirstN(8))
	to, _ := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 8, DP: 1}, topo.FirstN(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.AlignDevices(from, to)
	}
}

func BenchmarkPlanValidate(b *testing.B) {
	m := model.GPT3XL().WithAdam()
	topo := cluster.OnPrem16()
	from, _ := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 4, DP: 2}, topo.FirstN(16))
	to, _ := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 4, DP: 1}, topo.FirstN(8))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
