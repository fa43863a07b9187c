package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// PlannerScenario is one production-scale reconfiguration whose plan
// generation is benchmarked by the core bench suite, the root bench
// suite, and tenplex-bench's planner record. Scenarios cover the elastic
// events the paper evaluates (§6) — scale-out, scale-in, redeployment,
// fail-stop recovery — at 64 and 128 devices, plus an MoE
// expert-parallel reshape.
type PlannerScenario struct {
	Name string
	// Devices is the total device count involved (max of both sides).
	Devices  int
	Topo     *cluster.Topology
	From, To *core.PTC
	Opts     core.PlanOptions
}

// buildMoEPTC is the panic-on-error MoE sibling of buildPTC.
func buildMoEPTC(m *model.Model, cfg parallel.MoEConfig, alloc cluster.Allocation) *core.PTC {
	ptc, err := parallel.BuildMoEPTC(m, cfg, alloc)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return ptc
}

// PlannerScenarios builds the scenario set. Construction is pure
// metadata and deterministic; callers time only core.GeneratePlan.
func PlannerScenarios() []PlannerScenario {
	gpt := model.GPT3_6B7().WithAdam()
	moe := model.MoE(model.MoEConfig{
		Name: "moe-16e", Layers: 12, Hidden: 1024, Heads: 16,
		Experts: 64, Vocab: 32000, SeqLen: 1024,
	}).WithAdam()

	c64 := cluster.Cloud(64)
	c128 := cluster.Cloud(128)

	var out []PlannerScenario

	// Scale-out 32 -> 64: double data parallelism onto fresh devices.
	out = append(out, PlannerScenario{
		Name: "scale-out-64", Devices: 64, Topo: c64,
		From: buildPTC(gpt, parallel.Config{TP: 4, PP: 4, DP: 2}, c64.FirstN(32)),
		To:   buildPTC(gpt, parallel.Config{TP: 4, PP: 4, DP: 4}, c64.FirstN(64)),
		Opts: core.PlanOptions{Topo: c64},
	})

	// Scale-out 64 -> 128 and scale-in 128 -> 64 at full cluster size.
	from64 := buildPTC(gpt, parallel.Config{TP: 8, PP: 4, DP: 2}, c128.FirstN(64))
	full128 := buildPTC(gpt, parallel.Config{TP: 8, PP: 4, DP: 4}, c128.FirstN(128))
	out = append(out, PlannerScenario{
		Name: "scale-out-128", Devices: 128, Topo: c128,
		From: from64, To: full128, Opts: core.PlanOptions{Topo: c128},
	})
	out = append(out, PlannerScenario{
		Name: "scale-in-128", Devices: 128, Topo: c128,
		From: full128, To: from64, Opts: core.PlanOptions{Topo: c128},
	})

	// Redeployment: same parallelization, disjoint device halves of the
	// 128-device cluster (Fig. 10's scenario at scale).
	cfgRedeploy := parallel.Config{TP: 8, PP: 4, DP: 2}
	redeployTo := make(cluster.Allocation, 64)
	for i := range redeployTo {
		redeployTo[i] = cluster.DeviceID(64 + i)
	}
	out = append(out, PlannerScenario{
		Name: "redeploy-128", Devices: 128, Topo: c128,
		From: buildPTC(gpt, cfgRedeploy, c128.FirstN(64)),
		To:   buildPTC(gpt, cfgRedeploy, redeployTo),
		Opts: core.PlanOptions{Topo: c128},
	})

	// Fail-stop recovery from the surviving replica: DP=2 on 64
	// devices, one half-worker of the first replica dies; the job
	// shrinks to DP=1 on the surviving replica's devices.
	from64dp2 := buildPTC(gpt, parallel.Config{TP: 8, PP: 4, DP: 2}, c64.FirstN(64))
	survivors := make(cluster.Allocation, 32)
	for i := range survivors {
		survivors[i] = cluster.DeviceID(32 + i)
	}
	out = append(out, PlannerScenario{
		Name: "failstop-replica-64", Devices: 64, Topo: c64,
		From: from64dp2.WithoutDevices(0, 1, 2, 3),
		To:   buildPTC(gpt, parallel.Config{TP: 8, PP: 4, DP: 1}, survivors),
		Opts: core.PlanOptions{Topo: c64, StorageFallback: true},
	})

	// Fail-stop recovery from storage: both replicas of the first
	// pipeline stage's leading TP ranks die, forcing checkpoint reads
	// for exactly the lost ranges.
	bothReplicas := make(cluster.Allocation, 0, 32)
	for i := 4; i < 32; i++ {
		bothReplicas = append(bothReplicas, cluster.DeviceID(i))
	}
	for i := 36; i < 40; i++ {
		bothReplicas = append(bothReplicas, cluster.DeviceID(i))
	}
	out = append(out, PlannerScenario{
		Name: "failstop-storage-64", Devices: 64, Topo: c64,
		From: from64dp2.WithoutDevices(0, 1, 2, 3, 32, 33, 34, 35),
		To:   buildPTC(gpt, parallel.Config{TP: 8, PP: 4, DP: 1}, bothReplicas),
		Opts: core.PlanOptions{Topo: c64, StorageFallback: true},
	})

	// MoE expert-parallel reshape: 64 experts from EP=32 (two experts
	// per group, DP=2) to EP=64 (one expert per device, DP=1). The
	// target allocation is rotated so expert groups land on different
	// devices and every expert's tensors actually move.
	rotated := make(cluster.Allocation, 64)
	for i := range rotated {
		rotated[i] = cluster.DeviceID((i + 16) % 64)
	}
	out = append(out, PlannerScenario{
		Name: "moe-expert-64", Devices: 64, Topo: c64,
		From: buildMoEPTC(moe, parallel.MoEConfig{EP: 32, DP: 2}, c64.FirstN(64)),
		To:   buildMoEPTC(moe, parallel.MoEConfig{EP: 64, DP: 1}, rotated),
		Opts: core.PlanOptions{Topo: c64},
	})

	return out
}
