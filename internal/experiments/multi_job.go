package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/model"
	"tenplex/internal/sched"
)

// The multi-job cluster experiment goes beyond the paper's single-job
// evaluation: it exercises the cluster-side control plane the paper's
// scenario presumes (§2) — a scheduler arbitrating one shared cluster
// among many competing elastic DL jobs. The workload is a
// Philly-derived arrival trace on the 32-device cloud testbed with a
// mixed GPT/MoE job population and one injected fail-stop device
// failure. Models are reduced-scale so every reconfiguration moves
// real bytes through the Tensor Stores; times still come from the
// netsim bandwidth model.

// MultiJobSeed fixes the scenario's arrival trace; the whole simulation
// is deterministic for it.
const MultiJobSeed = 42

// arrivalSpecs draws the arrival trace p describes for seed and assigns
// the jobs a rotating GPT/MoE model mix.
func arrivalSpecs(p sched.ArrivalParams, seed int64) []coordinator.JobSpec {
	arrivals, err := sched.Arrivals(p, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	models := []*model.Model{
		model.GPTCustom(6, 32, 2, 64, 8),
		model.MoECustom(3, 16, 4),
		model.GPTCustom(4, 16, 2, 32, 8),
	}
	return coordinator.SpecsFromArrivals(arrivals, func(i int) *model.Model { return models[i%len(models)] })
}

// BurstyBurstiness is the sched.ArrivalParams.Burstiness the bursty
// scenario variant uses: enough clumping to deepen contention (the
// admission queue keeps arbitrating) while keeping the same offered
// load as the steady trace.
const BurstyBurstiness = 0.3

// MultiJobScenario builds the shared multi-job workload on a cloud
// topology of the given device count (a multiple of 4): the topology,
// the job specs, and one injected device failure. tenplex-ctl's sim
// subcommand reuses it with caller-chosen sizes.
func MultiJobScenario(devices, jobs int, seed int64) (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
	return multiJobScenario(devices, jobs, seed, 0)
}

// MultiJobScenarioBursty is MultiJobScenario under bursty submissions
// (sched.ArrivalParams.Burstiness = BurstyBurstiness) at the same
// offered load: arrival clumps deepen the contention the coordinator
// has to arbitrate.
func MultiJobScenarioBursty(devices, jobs int, seed int64) (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
	return multiJobScenario(devices, jobs, seed, BurstyBurstiness)
}

func multiJobScenario(devices, jobs int, seed int64, burstiness float64) (*cluster.Topology, []coordinator.JobSpec, []coordinator.FailureSpec) {
	if jobs < 1 {
		panic(fmt.Sprintf("experiments: MultiJobScenario with %d jobs", jobs))
	}
	p := sched.DefaultArrivalParams()
	p.Jobs = jobs
	// Contended regime: overlapping mid-size jobs oversubscribe the 32
	// devices, so admission has to arbitrate and elasticity matters.
	p.MeanInterArrivalMin = 12
	p.MeanDurationMin = 90
	p.Sizes = []int{2, 4, 8, 16}
	p.SizeWeights = []float64{0.25, 0.35, 0.25, 0.15}
	p.Burstiness = burstiness
	dev := cluster.DeviceID(7)
	if devices <= int(dev) {
		dev = cluster.DeviceID(devices - 1)
	}
	return cluster.Cloud(devices), arrivalSpecs(p, seed), []coordinator.FailureSpec{{TimeMin: 60, Device: dev}}
}

// MultiJobCluster is the multijob table: the 12-job coordinator
// simulation, one row per job. Its run's summary is the unlabelled
// "cluster" cell set the notes read.
func MultiJobCluster() Experiment {
	topo, specs, _ := MultiJobScenario(32, 12, MultiJobSeed)
	return Experiment{
		ID:     "multijob",
		Title:  fmt.Sprintf("Multi-job elastic cluster, %d jobs on %s", len(specs), topo.Name),
		Labels: []string{"job"},
		Variants: []Variant{func() (Runs, error) {
			topo, specs, failures := MultiJobScenario(32, 12, MultiJobSeed)
			res, err := coordinator.Run(topo, specs, failures, coordinator.Options{})
			if err != nil {
				return nil, err
			}
			sum := ResultCells(res, specs)
			sum.Key = "cluster"
			return append(Runs{sum}, JobCells(res)...), nil
		}},
		Columns: []Column{
			{"model", "model", "%s", 0}, {"req-GPUs", "requested_gpus", "%d", 0},
			{"arrival-min", "arrival_min", "%.1f", 0}, {"admit-min", "admit_min", "%.1f", 0},
			{"done-min", "done_min", "%.1f", 0}, {"resizes", "resizes", "%d", 0},
			{"reconfig-s", "reconfig_seconds", "%.3f", 0}, {"moved-MB", "moved_bytes", "%.1f", 1e6},
			{"completed", "completed", "%v", 0},
		},
		Notes: func(runs Runs) []string {
			num := func(cell string) float64 { return runs.Num("cluster", cell) }
			return []string{
				fmt.Sprintf("makespan %.1f min, mean cluster utilization %.2f", num("makespan_min"), num("mean_cluster_utilization")),
				fmt.Sprintf("aggregate reconfiguration time %.3f s over %.0f validated plans", num("aggregate_reconfig_seconds"), num("plans_validated")),
				fmt.Sprintf("%.0f timeline events, %.0f invariant sweeps, 1 injected device failure", num("timeline_events"), num("invariant_checks")),
				"every job's reassembled state is bit-verified against its initial tensors at completion",
			}
		},
	}
}
