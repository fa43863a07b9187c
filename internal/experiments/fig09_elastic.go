package experiments

import (
	"fmt"
	"math"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
	"tenplex/internal/sched"
)

// Fig9Row summarizes one system's elastic run.
type Fig9Row struct {
	System string
	// FinalSteps after the 538-minute Philly-derived trace.
	FinalSteps float64
	// MinToTarget is when the system reaches the reference step count
	// (the slowest system's final progress); +Inf if never.
	MinToTarget float64
	// PausedMin counts time spent with no runnable configuration.
	PausedMin float64
	// ReconfigSec accumulates reconfiguration downtime.
	ReconfigSec float64
	Timeline    []sched.TimePoint
}

// elasticSystem models one of Fig. 9's contenders as a sched.Job.
type elasticSystem struct {
	name string
	topo *cluster.Topology
	p    perfmodel.Params

	// configFor picks the parallelization for n GPUs; ok=false means
	// the system cannot run with n GPUs and pauses.
	configFor func(n int) (parallel.Config, bool)
	// reconfig computes the reconfiguration downtime in seconds.
	reconfig func(from, to *core.PTC) float64
	// restartSec is fixed process-restart overhead per event.
	restartSec float64

	cur     *core.PTC
	curCfg  parallel.Config
	curOK   bool
	modelID string
}

func (s *elasticSystem) ptcFor(cfg parallel.Config, n int) *core.PTC {
	return buildPTC(gptWithOpt("1.3B"), cfg, s.topo.FirstN(n))
}

func (s *elasticSystem) Reconfigure(e sched.Event) (float64, error) {
	cfg, ok := s.configFor(e.GPUs)
	if !ok {
		s.curOK = false
		return s.restartSec, nil
	}
	to := s.ptcFor(cfg, e.GPUs)
	var sec float64
	if s.cur != nil && s.curOK {
		sec = s.reconfig(s.cur, to)
	} else if s.cur != nil {
		// Resuming from a pause: state still lives on the old devices.
		sec = s.reconfig(s.cur, to)
	}
	s.cur, s.curCfg, s.curOK = to, cfg, true
	return sec + s.restartSec, nil
}

func (s *elasticSystem) StepRate() float64 {
	if !s.curOK {
		return 0
	}
	est := perfmodel.Throughput(gptWithOpt("1.3B"), s.curCfg, s.topo, s.topo.FirstN(s.curCfg.WorldSize()), s.p)
	if !est.Feasible {
		return 0
	}
	return 1 / est.IterSec // steps per second
}

// Fig9ElasticConvergence reproduces Fig. 9: GPT-3 XL trained over the
// 538-minute Philly-derived trace with GPU counts moving between 16, 8
// and 4. Tenplex reconfigures every parallelism dimension and keeps the
// best configuration; Tenplex-DP and Torch Distributed Elastic only
// change data parallelism over a fixed (T,P) = (2,4) plan, so they
// cannot run on 4 GPUs at all and pause. The paper reports Tenplex
// reaching the DP baseline's final step count in 46% less time.
func Fig9ElasticConvergence(seed int64) ([]Fig9Row, Table) {
	topo := cluster.OnPrem16()
	p := perfmodel.DefaultParams()
	trace := sched.PhillyDerived(seed)

	// Tenplex: best feasible configuration per GPU count (the paper's
	// choices: (2,4,2) -> (2,4,1) -> (2,2,1)).
	tenplexCfg := func(n int) (parallel.Config, bool) {
		switch n {
		case 16:
			return parallel.Config{TP: 2, PP: 4, DP: 2}, true
		case 8:
			return parallel.Config{TP: 2, PP: 4, DP: 1}, true
		case 4:
			return parallel.Config{TP: 2, PP: 2, DP: 1}, true
		}
		best, err := perfmodel.Best(gptWithOpt("1.3B"), topo, n, p)
		if err != nil {
			return parallel.Config{}, false
		}
		return best.Config, true
	}
	// DP-only systems: (T,P) pinned at (2,4); n must be a multiple of 8.
	dpOnlyCfg := func(n int) (parallel.Config, bool) {
		if n%8 != 0 {
			return parallel.Config{}, false
		}
		return parallel.Config{TP: 2, PP: 4, DP: n / 8}, true
	}

	planReconfig := func(from, to *core.PTC) float64 {
		sec, _ := reconfigSeconds(topo, from, to, nil)
		return sec
	}
	storageReconfig := func(from, to *core.PTC) float64 {
		return fullStateViaStorageSeconds(topo, from, to)
	}

	systems := []*elasticSystem{
		{name: "Tenplex", topo: topo, p: p, configFor: tenplexCfg, reconfig: planReconfig, restartSec: 10},
		{name: "Tenplex-DP", topo: topo, p: p, configFor: dpOnlyCfg, reconfig: planReconfig, restartSec: 10},
		{name: "Torch Distributed Elastic", topo: topo, p: p, configFor: dpOnlyCfg, reconfig: storageReconfig, restartSec: 60},
	}

	var rows []Fig9Row
	var results []sched.RunResult
	for _, s := range systems {
		cfg, ok := s.configFor(trace.InitialGPUs)
		if !ok {
			panic("experiments: initial config infeasible")
		}
		s.cur, s.curCfg, s.curOK = s.ptcFor(cfg, trace.InitialGPUs), cfg, true
		res, err := sched.Run(trace, s)
		if err != nil {
			panic(err)
		}
		results = append(results, res)
		rows = append(rows, Fig9Row{
			System:      s.name,
			FinalSteps:  res.Steps,
			ReconfigSec: res.ReconfigSec,
			Timeline:    res.Timeline,
		})
	}

	// Reference: the slowest system's final step count; when does each
	// system reach it?
	target := math.Inf(1)
	for _, r := range rows {
		if r.FinalSteps < target {
			target = r.FinalSteps
		}
	}
	for i := range rows {
		rows[i].MinToTarget = timeToReach(results[i].Timeline, target)
		rows[i].PausedMin = pausedMinutes(results[i].Timeline)
	}

	table := Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("Elastic convergence over a %0.0f-min Philly-derived trace (GPT-3 XL)", trace.DurationMin),
		Columns: []string{"system", "final-steps", "min-to-slowest-final", "paused(min)", "reconfig(s)"},
		Notes: []string{
			"paper: Tenplex reaches the DP baseline's final step in 46% less time",
			"Tenplex-DP/Torch pause at 4 GPUs: (T=2,P=4) needs 8 devices",
		},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.System,
			fmt.Sprintf("%.0f", r.FinalSteps),
			fmt.Sprintf("%.0f", r.MinToTarget),
			fmt.Sprintf("%.0f", r.PausedMin),
			fmt.Sprintf("%.0f", r.ReconfigSec),
		})
	}
	if len(rows) == 3 {
		red := 1 - rows[0].MinToTarget/rows[1].MinToTarget
		table.Notes = append(table.Notes,
			fmt.Sprintf("measured: Tenplex reaches Tenplex-DP's final step in %.0f%% less time", red*100))
	}
	return rows, table
}

// timeToReach interpolates when a timeline first crosses `steps`.
func timeToReach(tl []sched.TimePoint, steps float64) float64 {
	prev := sched.TimePoint{}
	for _, p := range tl {
		if p.Steps >= steps {
			if p.Steps == prev.Steps {
				return p.Min
			}
			frac := (steps - prev.Steps) / (p.Steps - prev.Steps)
			return prev.Min + frac*(p.Min-prev.Min)
		}
		prev = p
	}
	return math.Inf(1)
}

// pausedMinutes sums timeline segments with zero progress that are
// longer than reconfiguration downtime (true pauses last until the next
// scheduler event, tens of minutes).
func pausedMinutes(tl []sched.TimePoint) float64 {
	const minPause = 2.0 // minutes; reconfigurations finish in seconds
	var paused float64
	prev := sched.TimePoint{}
	for _, p := range tl {
		if p.Min-prev.Min > minPause && p.Steps == prev.Steps {
			paused += p.Min - prev.Min
		}
		prev = p
	}
	return paused
}

// PerplexityAt maps step progress onto the perplexity curve shown in
// Fig. 9 (a fitted LM learning curve: ppl = 8 + 92·exp(−steps/τ)).
func PerplexityAt(steps float64) float64 {
	const tau = 4000.0
	return 8 + 92*math.Exp(-steps/tau)
}
