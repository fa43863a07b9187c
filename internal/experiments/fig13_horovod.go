package experiments

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
)

// Modeling constants for Fig. 13, documented in EXPERIMENTS.md.
const (
	// resnetDevFLOPS is the effective per-device compute rate for
	// ResNet-50 (convolutions reach far lower utilization than
	// transformer GEMMs on tensor cores).
	resnetDevFLOPS = 2.75e12
	// horovodElasticOverhead: Elastic Horovod blocks training for a
	// state broadcast/commit every user-defined number of steps (§6.5);
	// amortized ≈ 4.5% of step time.
	horovodElasticOverhead = 0.045
	// tenplexOverhead: Tenplex streams dataset partitions and writes
	// checkpoints asynchronously; residual interference ≈ 1.5%.
	tenplexOverhead = 0.015
)

// Fig13HorovodThroughput reproduces Fig. 13: ResNet-50 / ImageNet-shape
// training on 2 GPUs. The paper measures Horovod 437, Horovod-Elastic
// 417 and Tenplex 429 samples/s — i.e. Tenplex matches plain Horovod
// despite supporting dynamic reconfiguration, while Horovod-Elastic
// pays for blocking state synchronization. Its one variant prices the
// shared base throughput once and derives each system's cell set.
func Fig13HorovodThroughput() Experiment {
	return Experiment{
		ID:      "fig13",
		Title:   "Training throughput vs Horovod (ResNet-50, 2 GPUs)",
		Labels:  []string{"system"},
		Columns: []Column{{"samples/s", "samples_sec", "%.0f", 0}},
		Notes: notes(
			"paper: Horovod 437, Horovod-Elastic 417, Tenplex 429 samples/s",
			fmt.Sprintf("overhead model: elastic sync %.1f%%, tenplex streaming %.1f%%",
				horovodElasticOverhead*100, tenplexOverhead*100),
		),
		Variants: []Variant{func() (Runs, error) {
			topo := cluster.OnPrem16()
			p := perfmodel.DefaultParams()
			p.DevFLOPS = resnetDevFLOPS
			p.GlobalBatch = 64
			est := perfmodel.Throughput(model.ResNet50(), parallel.Config{TP: 1, PP: 1, DP: 2}, topo, topo.FirstN(2), p)
			if !est.Feasible {
				return nil, fmt.Errorf("base config infeasible: %s", est.Reason)
			}
			systems := []struct {
				name     string
				overhead float64
			}{{"Horovod", 0}, {"Horovod Elastic", horovodElasticOverhead}, {"Tenplex", tenplexOverhead}}
			runs := make(Runs, len(systems))
			for i, s := range systems {
				runs[i] = Cells{Key: s.name, Labels: []string{s.name}, Sim: map[string]float64{"samples_sec": est.SamplesSec * (1 - s.overhead)}}
			}
			return runs, nil
		}},
	}
}
