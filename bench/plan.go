package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
)

// planScenario is one production-scale change request: the deployed
// PTC, the devices that failed (if any) and how to build the target.
// The seven scenarios are those of the committed planner records
// (BENCH_planner_*.json), rebuilt here from public constructors so that
// edits to internal/experiments cannot change the workload.
type planScenario struct {
	name   string
	topo   *cluster.Topology
	from   *core.PTC
	failed []cluster.DeviceID
	build  func() (*core.PTC, error)
}

// planPass is one pass of plan-128dev. A round plans the seven
// scenarios the way jobRuntime.planChange plans one change, then prices
// eight candidate targets against one source through DiffPlan, the way
// the coordinator re-prices proposals before committing one.
type planPass struct {
	seed int64
	tr   *tracer

	scenarios  []planScenario
	src        *core.PTC
	srcTopo    *cluster.Topology
	candidates []func() (*core.PTC, error)
	// golden are the stats and simulated seconds every round must
	// reproduce: the planner is deterministic, and the DiffPlan path must
	// price exactly what GeneratePlan would.
	golden []planned
}

func newPlanPass(seed int64, tr *tracer) *planPass { return &planPass{seed: seed, tr: tr} }

func span64(lo, n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(lo + i)
	}
	return out
}

func (p *planPass) setup() error {
	gpt := model.GPT3_6B7().WithAdam()
	moe := model.MoE(model.MoEConfig{
		Name: "moe-16e", Layers: 12, Hidden: 1024, Heads: 16,
		Experts: 64, Vocab: 32000, SeqLen: 1024,
	}).WithAdam()
	c64, c128 := cluster.Cloud(64), cluster.Cloud(128)

	gptOn := func(cfg parallel.Config, alloc cluster.Allocation) func() (*core.PTC, error) {
		return func() (*core.PTC, error) { return parallel.BuildPTC(gpt, cfg, alloc) }
	}
	must := func(build func() (*core.PTC, error)) *core.PTC {
		ptc, err := build()
		if err != nil {
			panic(fmt.Sprintf("plan-128dev: fixed configuration does not build: %v", err))
		}
		return ptc
	}
	t8p4 := func(dp int) parallel.Config { return parallel.Config{TP: 8, PP: 4, DP: dp} }

	from64 := must(gptOn(t8p4(2), c128.FirstN(64)))
	from64dp2 := must(gptOn(t8p4(2), c64.FirstN(64)))
	storageSurvivors := append(span64(4, 28), span64(36, 4)...)
	rotated := make(cluster.Allocation, 64)
	for i := range rotated {
		rotated[i] = cluster.DeviceID((i + 16) % 64)
	}
	p.scenarios = []planScenario{
		{name: "scale-out-64", topo: c64,
			from:  must(gptOn(parallel.Config{TP: 4, PP: 4, DP: 2}, c64.FirstN(32))),
			build: gptOn(parallel.Config{TP: 4, PP: 4, DP: 4}, c64.FirstN(64))},
		{name: "scale-out-128", topo: c128, from: from64, build: gptOn(t8p4(4), c128.FirstN(128))},
		{name: "scale-in-128", topo: c128,
			from: must(gptOn(t8p4(4), c128.FirstN(128))), build: gptOn(t8p4(2), c128.FirstN(64))},
		{name: "redeploy-128", topo: c128, from: from64, build: gptOn(t8p4(2), span64(64, 64))},
		// One half-worker of the first replica dies; the job shrinks onto
		// the surviving replica.
		{name: "failstop-replica-64", topo: c64, from: from64dp2, failed: span64(0, 4),
			build: gptOn(t8p4(1), span64(32, 32))},
		// Both replicas of the leading TP ranks die: exactly the lost ranges
		// come back from storage.
		{name: "failstop-storage-64", topo: c64, from: from64dp2,
			failed: append(span64(0, 4), span64(32, 4)...), build: gptOn(t8p4(1), storageSurvivors)},
		{name: "moe-expert-64", topo: c64,
			from: must(func() (*core.PTC, error) {
				return parallel.BuildMoEPTC(moe, parallel.MoEConfig{EP: 32, DP: 2}, c64.FirstN(64))
			}),
			build: func() (*core.PTC, error) {
				return parallel.BuildMoEPTC(moe, parallel.MoEConfig{EP: 64, DP: 1}, rotated)
			}},
	}

	// The repeat path: a job at TP8·PP4·DP2 on 64 of 128 devices, and
	// eight places it could go next. The seed fixes the order they are
	// priced in, which is what decides how much DiffPlan can reuse.
	p.src, p.srcTopo = from64, c128
	p.candidates = []func() (*core.PTC, error){
		gptOn(t8p4(4), c128.FirstN(128)),
		gptOn(t8p4(3), c128.FirstN(96)),
		gptOn(t8p4(1), c128.FirstN(32)),
		gptOn(parallel.Config{TP: 4, PP: 4, DP: 4}, c128.FirstN(64)),
		gptOn(parallel.Config{TP: 8, PP: 2, DP: 4}, c128.FirstN(64)),
		gptOn(parallel.Config{TP: 8, PP: 8, DP: 1}, c128.FirstN(64)),
		gptOn(t8p4(2), span64(64, 64)),
		gptOn(t8p4(2), span64(32, 64)),
	}
	rand.New(rand.NewSource(p.seed)).Shuffle(len(p.candidates), func(i, j int) {
		p.candidates[i], p.candidates[j] = p.candidates[j], p.candidates[i]
	})

	// Golden values come from plain GeneratePlan with nothing cached.
	p.golden = nil
	for _, sc := range p.scenarios {
		g, err := planOnce(nil, sc.topo, nil, sc.source(), sc.opts(), sc.build)
		if err != nil {
			return fmt.Errorf("plan-128dev: %s: %w", sc.name, err)
		}
		p.golden = append(p.golden, g)
	}
	for i, build := range p.candidates {
		g, err := planOnce(nil, p.srcTopo, nil, p.src, core.PlanOptions{Topo: p.srcTopo}, build)
		if err != nil {
			return fmt.Errorf("plan-128dev: candidate %d: %w", i, err)
		}
		p.golden = append(p.golden, g)
	}
	return p.op(-1, series{})
}

func (sc planScenario) source() *core.PTC {
	if len(sc.failed) > 0 {
		return sc.from.WithoutDevices(sc.failed...)
	}
	return sc.from
}

func (sc planScenario) opts() core.PlanOptions {
	return core.PlanOptions{Topo: sc.topo, StorageFallback: len(sc.failed) > 0}
}

func (p *planPass) op(i int, s series) error {
	p.tr.setIter(i)
	var (
		m0, m1      runtime.MemStats
		planTimes   []time.Duration // one per plan, scenarios then candidates
		got         []planned
		assignments int
		fetches     int
		movedBytes  int64
	)
	runtime.ReadMemStats(&m0)
	_, err := p.tr.phase(spanIter, func() error {
		for _, sc := range p.scenarios {
			d, err := p.tr.phase(spanPlan, func() error {
				g, err := planOnce(p.tr, sc.topo, nil, sc.source(), sc.opts(), sc.build)
				got = append(got, g)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", sc.name, err)
			}
			planTimes = append(planTimes, d)
		}
		// As jobRuntime.lastPlan: nothing cached after a commit, then each
		// priced candidate becomes the plan the next one diffs against.
		var prev *core.Plan
		for k, build := range p.candidates {
			d, err := p.tr.phase(spanPlan, func() error {
				g, err := planOnce(p.tr, p.srcTopo, prev, p.src, core.PlanOptions{Topo: p.srcTopo}, build)
				got = append(got, g)
				prev = g.plan
				return err
			})
			if err != nil {
				return fmt.Errorf("candidate %d: %w", k, err)
			}
			planTimes = append(planTimes, d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	for k, g := range got {
		if g.stats != p.golden[k].stats || g.simSec != p.golden[k].simSec {
			return fmt.Errorf("plan %d differs from its golden plan: %+v (%.6fs) vs %+v (%.6fs)",
				k, g.stats, g.simSec, p.golden[k].stats, p.golden[k].simSec)
		}
		assignments += len(g.plan.Assignments)
		fetches += g.stats.Fetches
		movedBytes += g.stats.MovedBytes
	}
	if i < 0 {
		return nil
	}
	// One sample per plan, kept per scenario and per candidate position
	// (see byStrata): the plans differ fourfold in cost, and a round of
	// fifteen would be one sample a single slow plan spoils.
	for k, d := range planTimes {
		if k < len(p.scenarios) {
			s.add("plan_ms/"+p.scenarios[k].name, ms(d))
		} else {
			s.add("replan_ms/"+strconv.Itoa(k-len(p.scenarios)), ms(d))
		}
	}
	s.add("core.plan.assignments", float64(assignments))
	s.add("core.plan.fetches", float64(fetches))
	s.add("core.plan.moved_bytes", float64(movedBytes))
	s.add("gc.cycles", float64(m1.NumGC-m0.NumGC))
	s.add("gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	return nil
}

func (p *planPass) finish(series) error { return nil }

func (p *planPass) close() error { return nil }

func (p *planPass) layers(spans []span, s series, out map[string]float64) {
	sampleLayers(s, out)
	spanLayers(spans, p.tr, out)
}
