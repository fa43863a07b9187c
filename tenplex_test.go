package tenplex

import (
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/perfmodel"
	"tenplex/internal/sched"
	"tenplex/internal/tensor"
)

func smallPerf() perfmodel.Params {
	p := perfmodel.DefaultParams()
	p.GlobalBatch = 16
	p.DeviceMemGB = 0
	return p
}

func newTestJob(t *testing.T) (*Job, map[core.TensorID]*tensor.Tensor) {
	t.Helper()
	m := model.GPTCustom(6, 32, 4, 128, 16)
	j, err := NewJob(JobConfig{
		Name:     "jobA",
		Model:    m,
		Topology: cluster.OnPrem16(),
		Perf:     smallPerf(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	init := map[core.TensorID]*tensor.Tensor{}
	seed := 1.0
	for _, lp := range m.StateParams() {
		full := tensor.New(lp.Param.DType, lp.Param.Shape...)
		full.FillSeq(seed*1e4, 1)
		seed++
		init[core.TensorID(lp.Path())] = full
	}
	return j, init
}

func verifyState(t *testing.T, j *Job, init map[core.TensorID]*tensor.Tensor) {
	t.Helper()
	state, err := j.State()
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range init {
		if !state[id].Equal(want) {
			t.Fatalf("state %s changed across reconfiguration", id)
		}
	}
}

func TestJobConfigValidation(t *testing.T) {
	if _, err := NewJob(JobConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestJobDeployReconfigureCycle(t *testing.T) {
	j, init := newTestJob(t)
	if err := j.Deploy(16, init); err != nil {
		t.Fatal(err)
	}
	if j.Config().WorldSize() != 16 {
		t.Fatalf("deployed config %v", j.Config())
	}
	verifyState(t, j, init)

	rep, err := j.Reconfigure(8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ToGPUs != 8 || rep.FromGPUs != 16 {
		t.Fatalf("report %+v", rep)
	}
	if rep.SimulatedSec < 0 {
		t.Fatalf("negative simulated time: %+v", rep)
	}
	verifyState(t, j, init)

	rep, err = j.Reconfigure(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ToGPUs != 4 {
		t.Fatalf("report %+v", rep)
	}
	verifyState(t, j, init)

	// Scale back out.
	if _, err := j.Reconfigure(16); err != nil {
		t.Fatal(err)
	}
	verifyState(t, j, init)
}

func TestJobReconfigureWithExplicitConfig(t *testing.T) {
	j, init := newTestJob(t)
	if err := j.DeployWith(parallel.Config{TP: 2, PP: 2, DP: 1}, j.cfg.Topology.FirstN(4), init); err != nil {
		t.Fatal(err)
	}
	rep, err := j.ReconfigureWith(parallel.Config{TP: 4, PP: 2, DP: 1}, j.cfg.Topology.FirstN(8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Splits == 0 {
		t.Fatal("TP widening must split")
	}
	verifyState(t, j, init)
}

func TestJobCheckpointAndRecover(t *testing.T) {
	j, init := newTestJob(t)
	if err := j.DeployWith(parallel.Config{TP: 2, PP: 1, DP: 1}, j.cfg.Topology.FirstN(2), init); err != nil {
		t.Fatal(err)
	}
	j.SetStep(42)
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Lose device 1 (no replica exists): recovery must read storage.
	rep, err := j.Recover([]cluster.DeviceID{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StorageBytes == 0 {
		t.Fatal("recovery without replicas must hit storage")
	}
	verifyState(t, j, init)
}

func TestJobRecoverFromReplicaAvoidsStorage(t *testing.T) {
	j, init := newTestJob(t)
	if err := j.DeployWith(parallel.Config{TP: 1, PP: 1, DP: 2}, j.cfg.Topology.FirstN(2), init); err != nil {
		t.Fatal(err)
	}
	rep, err := j.Recover([]cluster.DeviceID{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StorageBytes != 0 {
		t.Fatal("replica recovery should not read storage")
	}
	verifyState(t, j, init)
}

func TestJobHandleSchedulerEvents(t *testing.T) {
	j, init := newTestJob(t)
	if err := j.Deploy(8, init); err != nil {
		t.Fatal(err)
	}
	if _, err := j.HandleEvent(sched.Event{Kind: sched.ScaleOut, GPUs: 16}); err != nil {
		t.Fatal(err)
	}
	if len(j.Allocation()) != 16 {
		t.Fatal("scale-out did not grow allocation")
	}
	j.SetStep(10)
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.HandleEvent(sched.Event{Kind: sched.Failure, GPUs: 8}); err != nil {
		t.Fatal(err)
	}
	verifyState(t, j, init)
}

// TestJobAllocationNotAliased: the job keeps its own copy of the
// allocation it is deployed or moved onto; a caller that reuses its
// slice changes neither Allocation() nor which devices a failure event
// takes out.
func TestJobAllocationNotAliased(t *testing.T) {
	j, init := newTestJob(t)
	topo := cluster.OnPrem16()
	alloc := topo.FirstN(4)
	if err := j.DeployWith(parallel.Config{TP: 2, PP: 1, DP: 2}, alloc, init); err != nil {
		t.Fatal(err)
	}
	alloc[0] = 15
	if got := j.Allocation(); got[0] != 0 {
		t.Fatalf("after DeployWith the caller's slice is the job's: %v", got)
	}
	alloc = topo.FirstN(8)
	if _, err := j.ReconfigureWith(parallel.Config{TP: 2, PP: 2, DP: 2}, alloc); err != nil {
		t.Fatal(err)
	}
	for i := range alloc {
		alloc[i] = 15
	}
	if got := j.Allocation(); len(got) != 8 || got[0] != 0 || got[7] != 7 {
		t.Fatalf("after ReconfigureWith the caller's slice is the job's: %v", got)
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.HandleEvent(sched.Event{Kind: sched.Failure, GPUs: 4}); err != nil {
		t.Fatal(err)
	}
	verifyState(t, j, init)
}

func TestJobWriteStateRoundTrip(t *testing.T) {
	j, init := newTestJob(t)
	if err := j.Deploy(4, init); err != nil {
		t.Fatal(err)
	}
	// Simulate a training update: bump one tensor and push it back.
	updated := map[core.TensorID]*tensor.Tensor{}
	for id, full := range init {
		updated[id] = full.Clone()
	}
	var anyID core.TensorID
	for id := range updated {
		anyID = id
		break
	}
	updated[anyID].FillSeq(3.25, 0)
	if err := j.WriteState(updated); err != nil {
		t.Fatal(err)
	}
	state, err := j.State()
	if err != nil {
		t.Fatal(err)
	}
	if !state[anyID].Equal(updated[anyID]) {
		t.Fatal("WriteState update lost")
	}
	// And a reconfiguration preserves the updated state.
	if _, err := j.Reconfigure(8); err != nil {
		t.Fatal(err)
	}
	verifyState(t, j, updated)
}

func TestJobErrorsBeforeDeploy(t *testing.T) {
	j, init := newTestJob(t)
	if _, err := j.Reconfigure(4); err == nil {
		t.Fatal("reconfigure before deploy succeeded")
	}
	if err := j.Checkpoint(); err == nil {
		t.Fatal("checkpoint before deploy succeeded")
	}
	if _, err := j.State(); err == nil {
		t.Fatal("state before deploy succeeded")
	}
	if _, err := j.HandleEvent(sched.Event{Kind: sched.Failure, GPUs: 4}); err == nil {
		t.Fatal("failure event before deploy succeeded")
	}
	if _, err := j.HandleEvent(sched.Event{Kind: sched.ScaleOut, GPUs: 4}); err == nil {
		t.Fatal("scale-out event before deploy succeeded")
	}
	if err := j.Deploy(4, init); err != nil {
		t.Fatal(err)
	}
	for _, gpus := range []int{8, 4, 0, -1} {
		if _, err := j.HandleEvent(sched.Event{Kind: sched.Failure, GPUs: gpus}); err == nil {
			t.Fatalf("failure event leaving %d of 4 devices succeeded", gpus)
		}
	}
	verifyState(t, j, init)
}
