package train

import (
	"fmt"

	"tenplex/internal/dataset"
	"tenplex/internal/tensor"
)

// BatchPolicy controls how hyper-parameters react to a change in the
// degree of data parallelism (§2.3, "consistency of hyper-parameters").
type BatchPolicy int

const (
	// KeepGlobalBatch holds the global batch size constant: each device
	// batch becomes global/dp. Convergence is unaffected — the correct
	// behaviour, which Tenplex enforces.
	KeepGlobalBatch BatchPolicy = iota
	// KeepDeviceBatch holds the per-device batch constant, so the global
	// batch (and, with the common linear-scaling rule, the learning
	// rate) grows with dp. This is the inconsistent behaviour of Fig. 2b.
	KeepDeviceBatch
)

// DataPolicy controls how the dataset position reacts to a
// reconfiguration (§2.3, "consistency of training dataset").
type DataPolicy int

const (
	// ResumePosition keeps the epoch cursor: every sample of the epoch
	// is still consumed exactly once — the correct behaviour.
	ResumePosition DataPolicy = iota
	// RestartEpoch rewinds the epoch after a resource change, re-reading
	// the first part of the epoch. This is the inconsistent behaviour of
	// Fig. 2a: the repeated samples overfit and the loss drops
	// unreasonably.
	RestartEpoch
)

// Trainer drives data-parallel SGD over the synthetic task with real
// state: parameters and momentum live in tensors, batches come from the
// dataset cursor, and the degree of data parallelism can change between
// steps.
type Trainer struct {
	Task  *Task
	State map[string]*tensor.Tensor
	// Cursor is the dataset state (part of the PTC).
	Cursor dataset.Cursor

	LR          float64
	Momentum    float64
	GlobalBatch int
	DeviceBatch int // used by KeepDeviceBatch
	DP          int

	BatchPolicy BatchPolicy
	DataPolicy  DataPolicy

	// Losses records the loss of every step taken.
	Losses []float64
	// Step counts completed steps.
	Step int
}

// NewTrainer builds a trainer with deterministic initial state.
func NewTrainer(task *Task, hidden int, lr, momentum float64, globalBatch, dp int, seed int64) *Trainer {
	cat := MLPCatalog(task.In, hidden, task.Classes)
	return &Trainer{
		Task:        task,
		State:       InitState(cat, seed),
		Cursor:      dataset.Cursor{Seed: seed},
		LR:          lr,
		Momentum:    momentum,
		GlobalBatch: globalBatch,
		DeviceBatch: globalBatch / dp,
		DP:          dp,
	}
}

// TrainStep runs one data-parallel step: the global batch is cut into
// per-replica shards by the dataset cursor, every replica computes
// gradients on its shard, gradients are averaged (weighted by shard
// size), and a single SGD update is applied — numerically the same
// computation a DP cluster performs. Returns the global-batch loss.
func (tr *Trainer) TrainStep() float64 {
	gb := tr.GlobalBatch
	if tr.BatchPolicy == KeepDeviceBatch {
		gb = tr.DeviceBatch * tr.DP
	}
	shards := tr.Cursor.NextBatch(tr.Task.NumSamples, gb, tr.DP)

	var total Gradients
	var loss float64
	for _, sh := range shards {
		x := tr.Task.Features(sh.Samples)
		labels := tr.Task.Labels(sh.Samples)
		h, logits := Forward(tr.State, x)
		l, dl := SoftmaxCE(logits, labels)
		g := Backward(tr.State, x, h, dl)
		w := float64(len(sh.Samples)) / float64(gb)
		loss += l * w
		if total == nil {
			total = Gradients{}
			for name, gt := range g {
				total[name] = tensor.Scale(gt, w)
			}
		} else {
			for name, gt := range g {
				total[name].AddScaledInPlace(w, gt)
			}
		}
	}
	SGDUpdate(tr.State, total, tr.LR, tr.Momentum)
	tr.Losses = append(tr.Losses, loss)
	tr.Step++
	return loss
}

// Run takes n steps.
func (tr *Trainer) Run(n int) {
	for i := 0; i < n; i++ {
		tr.TrainStep()
	}
}

// Rescale changes the data-parallel degree mid-training, applying the
// trainer's batch and data policies — the moment a GPU change lands.
func (tr *Trainer) Rescale(newDP int) {
	if newDP < 1 {
		panic(fmt.Sprintf("train: bad dp %d", newDP))
	}
	switch tr.DataPolicy {
	case ResumePosition:
		// Cursor unchanged: the epoch suffix is re-partitioned.
	case RestartEpoch:
		tr.Cursor.Consumed = 0
	}
	switch tr.BatchPolicy {
	case KeepGlobalBatch:
		// Global batch constant; device batch implicitly shrinks/grows.
	case KeepDeviceBatch:
		// Device batch constant -> global batch scales with dp, and the
		// job applies the linear LR scaling rule naively.
		tr.LR *= float64(newDP) / float64(tr.DP)
	}
	tr.DP = newDP
}
