package experiments

import (
	"fmt"

	"tenplex/internal/train"
)

// The steps at which the Fig. 2 runs change from 2 to 4 GPUs.
const (
	fig2aEventStep = 24
	fig2bEventStep = 10
)

// fig2Task builds the shared workload: a memorizable noisy
// classification task (over-parameterized, like the paper's GPT-3 on
// MNIST demonstration).
func fig2Task() *train.Task {
	tk := train.NewTask(8, 4, 1024, 11)
	tk.NoiseFrac = 0.25
	return tk
}

// Fig2aDatasetConsistency reproduces Fig. 2a: scaling from 2 to 4 GPUs
// mid-epoch while *restarting* the epoch makes the job re-read data it
// already trained on; the training loss drops unreasonably (overfit)
// compared to the static run. Tenplex's consistent re-partitioning
// (ResumePosition) instead tracks the static curve exactly.
func Fig2aDatasetConsistency() Experiment {
	return fig2("fig2a", "Impact of inconsistent dataset access on convergence (2 -> 4 GPUs)",
		"paper: re-reading the first half of the epoch overfits; loss drops unreasonably",
		func(dynamic bool) []float64 {
			tr := train.NewTrainer(fig2Task(), 64, 0.3, 0.9, 64, 2, 7)
			if dynamic {
				tr.DataPolicy = train.RestartEpoch
			}
			tr.Run(fig2aEventStep)
			if dynamic {
				tr.Rescale(4)
			}
			tr.Run(16)
			return tr.Losses
		})
}

// Fig2bBatchConsistency reproduces Fig. 2b: scaling from 2 to 4 GPUs
// while keeping the *device* batch size constant doubles the global
// batch, and with the naive linear learning-rate scaling rule the run
// diverges from the static curve. Keeping the global batch constant
// (Tenplex's policy) is unaffected.
func Fig2bBatchConsistency() Experiment {
	lr := 1.05 // near the stability edge, as large-batch LMs are
	return fig2("fig2b", "Impact of inconsistent batch size on convergence (2 -> 4 GPUs)",
		"paper: constant device batch (growing global batch) diverges after the change",
		func(dynamic bool) []float64 {
			tk := train.NewTask(8, 4, 4096, 11)
			tr := train.NewTrainer(tk, 32, lr, 0.9, 32, 2, 7)
			if dynamic {
				tr.BatchPolicy = train.KeepDeviceBatch
				tr.DeviceBatch = 16
			}
			tr.Run(fig2bEventStep)
			// The dynamic run keeps its device batch and scales the LR
			// linearly; the static run keeps its global batch, so nothing
			// changes.
			tr.Rescale(4)
			tr.Run(40)
			return tr.Losses
		})
}

// fig2 is a Fig. 2 panel: the static and the dynamic run of losses, one
// cell set per step.
func fig2(id, title, note string, losses func(dynamic bool) []float64) Experiment {
	return Experiment{
		ID: id, Title: title, Labels: []string{"step"},
		Columns: []Column{{"static-loss", "static_loss", "%.4f", 0}, {"dynamic-loss", "dynamic_loss", "%.4f", 0}},
		Notes:   notes(note),
		Variants: []Variant{func() (Runs, error) {
			static, dynamic := losses(false), losses(true)
			runs := make(Runs, len(static))
			for i := range static {
				step := fmt.Sprint(i)
				runs[i] = Cells{Key: step, Labels: []string{step},
					Sim: map[string]float64{"static_loss": static[i], "dynamic_loss": dynamic[i]}}
			}
			return runs, nil
		}},
	}
}
