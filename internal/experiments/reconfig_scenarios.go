package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
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
	// Deployed, Failed and Target are what the coordinator has in hand for
	// every change it prices: the deployed PTC, the devices that failed
	// under it (From is Deployed without them), and the parallelizer run
	// that produces To anew. PlanChange times the sequence from there.
	Deployed *core.PTC
	Failed   []cluster.DeviceID
	Target   func() *core.PTC
}

// PlanChange plans and prices the scenario through the functions
// tenplex-coordd runs per candidate change — the parallelizer, then
// job.PlanTo (degrade, AlignDevices, GeneratePlan, Validate) and Price
// (Stats, netsim.Simulate) — which is what a scheduling decision pays;
// GeneratePlan alone is a fraction of it. The priced change is dropped.
func (sc PlannerScenario) PlanChange() error {
	ch, err := job.PlanTo(sc.Topo, sc.Deployed, sc.Target(), sc.Failed)
	if err != nil {
		return err
	}
	ch.Price(sc.Topo)
	return nil
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
	// add files a scenario whose target is the GPT model under cfg on
	// alloc and whose source is deployed, less the failed devices.
	add := func(name string, topo *cluster.Topology, deployed *core.PTC, failed []cluster.DeviceID,
		cfg parallel.Config, alloc cluster.Allocation) {
		sc := PlannerScenario{
			Name: name, Devices: len(topo.Devices), Topo: topo,
			Opts:     core.PlanOptions{Topo: topo, StorageFallback: len(failed) > 0},
			Deployed: deployed, Failed: failed,
			Target: func() *core.PTC { return buildPTC(gpt, cfg, alloc) },
		}
		sc.From, sc.To = deployed, sc.Target()
		if len(failed) > 0 {
			sc.From = deployed.WithoutDevices(failed...)
		}
		out = append(out, sc)
	}
	span := func(lo, n int) cluster.Allocation {
		a := make(cluster.Allocation, n)
		for i := range a {
			a[i] = cluster.DeviceID(lo + i)
		}
		return a
	}
	t8p4 := func(dp int) parallel.Config { return parallel.Config{TP: 8, PP: 4, DP: dp} }

	// Scale-out 32 -> 64: double data parallelism onto fresh devices.
	add("scale-out-64", c64, buildPTC(gpt, parallel.Config{TP: 4, PP: 4, DP: 2}, c64.FirstN(32)), nil,
		parallel.Config{TP: 4, PP: 4, DP: 4}, c64.FirstN(64))

	// Scale-out 64 -> 128 and scale-in 128 -> 64 at full cluster size.
	from64 := buildPTC(gpt, t8p4(2), c128.FirstN(64))
	add("scale-out-128", c128, from64, nil, t8p4(4), c128.FirstN(128))
	add("scale-in-128", c128, buildPTC(gpt, t8p4(4), c128.FirstN(128)), nil, t8p4(2), c128.FirstN(64))

	// Redeployment: same parallelization, disjoint device halves of the
	// 128-device cluster (Fig. 10's scenario at scale).
	add("redeploy-128", c128, from64, nil, t8p4(2), span(64, 64))

	// Fail-stop recovery from the surviving replica: DP=2 on 64
	// devices, one half-worker of the first replica dies; the job
	// shrinks to DP=1 on the surviving replica's devices.
	from64dp2 := buildPTC(gpt, t8p4(2), c64.FirstN(64))
	add("failstop-replica-64", c64, from64dp2, span(0, 4), t8p4(1), span(32, 32))

	// Fail-stop recovery from storage: both replicas of the first
	// pipeline stage's leading TP ranks die, forcing checkpoint reads
	// for exactly the lost ranges.
	add("failstop-storage-64", c64, from64dp2, append(span(0, 4), span(32, 4)...),
		t8p4(1), append(span(4, 28), span(36, 4)...))

	// MoE expert-parallel reshape: 64 experts from EP=32 (two experts
	// per group, DP=2) to EP=64 (one expert per device, DP=1). The
	// target allocation is rotated so expert groups land on different
	// devices and every expert's tensors actually move.
	rotated := make(cluster.Allocation, 64)
	for i := range rotated {
		rotated[i] = cluster.DeviceID((i + 16) % 64)
	}
	moeFrom := buildMoEPTC(moe, parallel.MoEConfig{EP: 32, DP: 2}, c64.FirstN(64))
	moeTo := func() *core.PTC { return buildMoEPTC(moe, parallel.MoEConfig{EP: 64, DP: 1}, rotated) }
	out = append(out, PlannerScenario{
		Name: "moe-expert-64", Devices: 64, Topo: c64,
		From: moeFrom, To: moeTo(), Opts: core.PlanOptions{Topo: c64},
		Deployed: moeFrom, Target: moeTo,
	})

	return out
}
