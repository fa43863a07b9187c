package coordinator

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/obs"
	"tenplex/internal/sched"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// contendedSpecs is a 16-device workload with admission contention,
// preemptive scale-ins, elastic scale-outs, a defrag redeploy and a
// mid-run device failure — every change kind the runtime supports.
func contendedSpecs() ([]JobSpec, []FailureSpec) {
	g := tinyGPT()
	specs := []JobSpec{
		{Name: "a", Model: g, ArrivalMin: 0, DurationMin: 100, GPUs: 4, Seed: 1},
		{Name: "b", Model: g, ArrivalMin: 0, DurationMin: 20, GPUs: 4, Seed: 2},
		{Name: "c", Model: tinyMoE(), ArrivalMin: 0, DurationMin: 30, GPUs: 4, Seed: 3},
		{Name: "d", Model: g, ArrivalMin: 0, DurationMin: 100, GPUs: 4, MinGPUs: 2, MaxGPUs: 8, Seed: 4},
		{Name: "e", Model: g, ArrivalMin: 1, DurationMin: 100, GPUs: 2, Seed: 5},
	}
	return specs, []FailureSpec{{TimeMin: 15, Device: 2}}
}

// TestParallelRuntimeTraceIdentical is the parallel runtime's core
// determinism property: fanning the plan+transform work out over a
// worker pool — and even pacing the heap on the real clock — must not
// change a single timeline byte relative to the serialized loop.
func TestParallelRuntimeTraceIdentical(t *testing.T) {
	topo := cluster.OnPrem16()
	specs, failures := contendedSpecs()
	serial, err := Run(topo, specs, failures, Options{Workers: 1})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for name, opts := range map[string]Options{
		"sim-pool-4":  {Workers: 4},
		"sim-pool-16": {Workers: 16},
		"wall-serial": {Workers: 1, Mode: ModeWall, WallScale: time.Microsecond},
		"wall-pool-8": {Workers: 8, Mode: ModeWall, WallScale: time.Microsecond},
	} {
		res, err := Run(topo, specs, failures, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(serial.Timeline, res.Timeline) {
			t.Fatalf("%s timeline diverged from the serialized loop:\n--- serial ---\n%s--- %s ---\n%s",
				name, serial.Render(), name, res.Render())
		}
		if !reflect.DeepEqual(serial.Jobs, res.Jobs) {
			t.Fatalf("%s job summaries diverged", name)
		}
		if serial.ReconfigSecTotal != res.ReconfigSecTotal || serial.PlansValidated != res.PlansValidated {
			t.Fatalf("%s aggregates diverged", name)
		}
	}
}

// TestParallelRuntimeMultiJobScenario runs a larger arrival-trace
// workload through the pooled runtime and cross-checks it against the
// serialized loop, so the determinism property is exercised beyond
// hand-crafted specs.
func TestParallelRuntimeMultiJobScenario(t *testing.T) {
	topo := cluster.Cloud32()
	arrivals, err := sched.Arrivals(sched.DefaultArrivalParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	models := []*model.Model{tinyGPT(), tinyMoE()}
	specs := SpecsFromArrivals(arrivals, func(i int) *model.Model { return models[i%len(models)] })
	failures := []FailureSpec{{TimeMin: 30, Device: 5}}
	serial, err := Run(topo, specs, failures, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Run(topo, specs, failures, Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Timeline, pooled.Timeline) {
		t.Fatalf("pooled timeline diverged:\n--- serial ---\n%s--- pooled ---\n%s",
			serial.Render(), pooled.Render())
	}
}

// TestWallClockFailStop injects a fail-stop failure while the runtime
// is paced on the real clock with a worker pool: recovery must drain
// the victim's in-flight chain, replan against the degraded PTC, and
// leave every job's state bit-verified — with the exact trace sim mode
// produces.
func TestWallClockFailStop(t *testing.T) {
	topo := cluster.OnPrem16()
	specs := []JobSpec{
		{Name: "a", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 60, GPUs: 8, MinGPUs: 4, MaxGPUs: 8, Seed: 1},
		{Name: "b", Model: tinyMoE(), ArrivalMin: 0, DurationMin: 60, GPUs: 4, Seed: 2},
	}
	failures := []FailureSpec{{TimeMin: 10, Device: 2}}
	sim, err := Run(topo, specs, failures, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wall, err := Run(topo, specs, failures, Options{Mode: ModeWall, Workers: 8, WallScale: 5 * time.Microsecond})
	if err != nil {
		t.Fatalf("wall-clock run: %v\n%s", err, wall.Render())
	}
	if countKind(wall, EvFailure) != 1 || countKind(wall, EvRecover) != 1 {
		t.Fatalf("failure/recover events missing\n%s", wall.Render())
	}
	for _, js := range wall.Jobs {
		if !js.Completed {
			t.Errorf("job %s did not complete after the wall-clock failure", js.Name)
		}
	}
	if !reflect.DeepEqual(sim.Timeline, wall.Timeline) {
		t.Fatal("wall-clock trace diverged from sim mode")
	}
	if wall.WallNs <= 0 {
		t.Fatal("wall-clock run reported no elapsed time")
	}
}

// TestPreemptionMidReconfiguration preempts the same elastic victim
// twice in quick succession — in wall-clock mode the second shrink is
// decided while the first one's transform may still be in flight on
// the victim's chain — and expects chained, ordered reconfigurations
// and intact state.
func TestPreemptionMidReconfiguration(t *testing.T) {
	topo := cluster.OnPrem16()
	specs := []JobSpec{
		// The victim holds the whole cluster and shrinks down to 4 as
		// rigid jobs arrive back to back.
		{Name: "victim", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 200, GPUs: 16, MinGPUs: 4, MaxGPUs: 16, Seed: 1},
		{Name: "r1", Model: tinyGPT(), ArrivalMin: 1, DurationMin: 50, GPUs: 4, Seed: 2},
		{Name: "r2", Model: tinyGPT(), ArrivalMin: 1.01, DurationMin: 50, GPUs: 4, Seed: 3},
		{Name: "r3", Model: tinyMoE(), ArrivalMin: 1.02, DurationMin: 50, GPUs: 4, Seed: 4},
	}
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 4, Mode: ModeWall, WallScale: time.Microsecond},
	} {
		res, err := Run(topo, specs, nil, opts)
		if err != nil {
			t.Fatalf("mode %v: %v\n%s", opts.Mode, err, res.Render())
		}
		shrinks := 0
		for _, e := range res.Timeline {
			if e.Kind == EvScaleIn && e.Job == "victim" && strings.Contains(e.Note, "preempted for") {
				shrinks++
			}
		}
		if shrinks < 2 {
			t.Fatalf("mode %v: victim preempted %d times, want >= 2\n%s", opts.Mode, shrinks, res.Render())
		}
		if res.Preemptions != shrinks {
			t.Fatalf("mode %v: Preemptions = %d, %d preemptive scale-ins on the timeline",
				opts.Mode, res.Preemptions, shrinks)
		}
		for _, js := range res.Jobs {
			if !js.Completed {
				t.Fatalf("mode %v: job %s did not complete", opts.Mode, js.Name)
			}
		}
	}
}

// TestWallClockOverlapBeatsSerial is the runtime's reason to exist:
// with the heap paced on the real clock, fanning reconfiguration work
// out must finish the same scenario in less wall time than the
// single-threaded loop, which blocks the clock during every transform.
func TestWallClockOverlapBeatsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if RaceEnabled {
		t.Skip("race-detector overhead swamps the paced schedule")
	}
	topo := cluster.OnPrem16()
	specs, failures := contendedSpecs()
	scale := 400 * time.Microsecond
	best := func(opts Options) int64 {
		var min int64
		for i := 0; i < 3; i++ {
			res, err := Run(topo, specs, failures, opts)
			if err != nil {
				t.Fatal(err)
			}
			if min == 0 || res.WallNs < min {
				min = res.WallNs
			}
		}
		return min
	}
	serial := best(Options{Workers: 1, Mode: ModeWall, WallScale: scale})
	parallel := best(Options{Workers: 8, Mode: ModeWall, WallScale: scale})
	// Generous bound: the CI box may be slow or single-core, but the
	// overlap win must not vanish entirely.
	if float64(parallel) > float64(serial)*1.05 {
		t.Fatalf("parallel wall-clock runtime (%.1fms) did not beat the serialized loop (%.1fms)",
			float64(parallel)/1e6, float64(serial)/1e6)
	}
}

// abortFirstChange makes one job's first reconfiguration abort, and not
// before the decision plane has counted after plans (2: a second change
// has been decided on top of it): every upload into the job's staging
// tree waits for that, then fails, until the runtime has rolled back as
// many times as the change has attempts. After that the stores behave.
type abortFirstChange struct {
	job       string
	attempts  int64
	after     int64
	plans     *obs.Counter
	refused   atomic.Bool // an upload of the current attempt was refused
	rollbacks atomic.Int64
}

type abortingStore struct {
	store.Access
	dev cluster.DeviceID
	*abortFirstChange
}

func (a abortingStore) Upload(path string, t *tensor.Tensor) error {
	if strings.HasPrefix(path, transform.StagingRoot(a.job)) && a.rollbacks.Load() < a.attempts {
		for deadline := time.Now().Add(10 * time.Second); a.plans.Value() < a.after && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		a.refused.Store(true)
		return fmt.Errorf("injected: %s refuses %s", a.job, path)
	}
	return a.Access.Upload(path, t)
}

// Delete counts rollbacks: a wipe of the job's model tree on device 0
// that follows a refused upload (a commit wipes it too, but only after
// an attempt in which nothing was refused).
func (a abortingStore) Delete(path string) error {
	if a.dev == 0 && path == transform.ModelRoot(a.job) && a.refused.Swap(false) {
		a.rollbacks.Add(1)
	}
	return a.Access.Delete(path)
}

// runLateAbort runs specs in ModeWall on 8 devices with job v's first
// change aborting once after plans have been counted, and returns the
// result, v's timeline kinds and how often a commit re-planned. It has
// checked that the run ended clean (terminal audit included), that every
// job completed bit-verified and that only the one change was refused.
func runLateAbort(t *testing.T, specs []JobSpec, after int64) (Result, []string, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	pol := RecoveryPolicy{MaxAttempts: 2}
	fault := &abortFirstChange{job: "v", attempts: int64(pol.MaxAttempts), after: after, plans: reg.Counter("coord.plans")}
	res, err := Run(cluster.Cloud(8), specs, nil, Options{
		Mode: ModeWall, Workers: 4, WallScale: time.Microsecond,
		DefragMaxSec: -1, Recovery: pol, Metrics: reg,
		Stores: func(job string, dev cluster.DeviceID) store.Access {
			acc := store.Access(store.Local{FS: store.NewMemFS()})
			if job == fault.job {
				acc = abortingStore{Access: acc, dev: dev, abortFirstChange: fault}
			}
			return acc
		},
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Render())
	}
	if got := fault.rollbacks.Load(); got != fault.attempts {
		t.Fatalf("%d rollbacks, want the first change's %d attempts to fail and nothing else", got, fault.attempts)
	}
	if res.Retries != pol.MaxAttempts-1 {
		t.Fatalf("%d retries, want %d\n%s", res.Retries, pol.MaxAttempts-1, res.Render())
	}
	for _, js := range res.Jobs {
		if !js.Completed {
			t.Fatalf("job %s did not complete\n%s", js.Name, res.Render())
		}
	}
	return res, kindsOf(res.Timeline, "v"), reg.Counter("coord.replans").Value()
}

// TestWallModeReplansAfterLateAbort is the one case in which ModeWall's
// decided PTC is wrong. v is admitted on 2 of 8 devices and scaled out to
// all 8; r arrives and v is shrunk to 4 for it — decided, planned and
// priced from the 8-device PTC — while the scale-out is still in flight.
// The scale-out then aborts and the runtime rolls back to the 2-device
// placement it was deployed under, so the shrink's plan reads from
// devices that hold nothing. Its commit must notice, plan the same
// target again from what the runtime holds, and land; the late abort is
// superseded (a newer change has been decided), nobody is requeued, v
// grows again when r is done, and both jobs end bit-verified with the
// terminal audit clean — what planning behind a drained chain gave, and
// the timeline the same scenario has there. Without the re-plan the run
// fails ("v runtime alloc has 2 devices, decided 8").
func TestWallModeReplansAfterLateAbort(t *testing.T) {
	res, kinds, replans := runLateAbort(t, []JobSpec{
		{Name: "v", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 200, GPUs: 2, MinGPUs: 2, MaxGPUs: 8, Seed: 1},
		{Name: "r", Model: tinyGPT(), ArrivalMin: 1, DurationMin: 50, GPUs: 4, Seed: 2},
	}, 2)
	if replans < 1 {
		t.Fatalf("the shrink planned over the aborted scale-out committed without re-planning\n%s", res.Render())
	}
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvScaleIn, EvScaleOut, EvComplete}; !reflect.DeepEqual(kinds, want) || res.Requeues != 0 {
		t.Fatalf("v's timeline: %v with %d requeues, want %v and none\n%s", kinds, res.Requeues, want, res.Render())
	}
}

// TestWallModeReadmitsWithoutWaiting: with nothing decided after it, an
// aborted change requeues its job, and the re-admission that follows at
// once restores it from its checkpoint. The restore is priced on the
// event loop (book reads the price there, and nothing else orders that
// read after the chain — a later change of the same job used to, by
// draining it), the scale-out decided in the same breath is planned from
// the restore's target, and no commit has anything to re-plan. r arrives
// — on devices v never wanted — while v runs restored: a re-admission
// under contention.
func TestWallModeReadmitsWithoutWaiting(t *testing.T) {
	res, kinds, replans := runLateAbort(t, []JobSpec{
		{Name: "v", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 300e3, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1},
		{Name: "r", Model: tinyGPT(), ArrivalMin: 100e3, DurationMin: 1e3, GPUs: 4, Seed: 2},
	}, 1)
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvRequeue, EvAdmit, EvScaleOut, EvComplete}; !reflect.DeepEqual(kinds, want) || res.Requeues != 1 {
		t.Fatalf("v's timeline: %v with %d requeues, want %v and one\n%s", kinds, res.Requeues, want, res.Render())
	}
	if replans != 0 {
		t.Fatalf("%d commits re-planned; the decided PTC should have followed the requeue and the restore\n%s", replans, res.Render())
	}
}

// lateAbortAlone is runLateAbort with job v and nothing else: no other
// job, no failure, no event at all between v's admission and its
// completion durationMin later. The abort must requeue v all the same.
func lateAbortAlone(t *testing.T, durationMin float64) {
	t.Helper()
	res, kinds, replans := runLateAbort(t, []JobSpec{
		{Name: "v", Model: tinyGPT(), ArrivalMin: 0, DurationMin: durationMin, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1},
	}, 1)
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvRequeue, EvAdmit, EvScaleOut, EvComplete}; !reflect.DeepEqual(kinds, want) || res.Requeues != 1 {
		t.Fatalf("v's timeline: %v with %d requeues, want %v and one\n%s", kinds, res.Requeues, want, res.Render())
	}
	if replans != 0 {
		t.Fatalf("%d commits re-planned, want none\n%s", replans, res.Render())
	}
}

// TestWallModeLateAbortWithNoEvent: a commit outcome is an event. v's
// scale-out aborts about a millisecond into a 300 ms run in which
// nothing else happens; the loop, waiting for v's completion to come
// due, takes the outcome when the chain posts it and requeues v then and
// there. When outcomes were only looked at as heap events fired, the
// next one was v's completion, and its verify found a runtime that never
// got to where the loop thought it was ("v runtime alloc has 2 devices,
// decided 4").
func TestWallModeLateAbortWithNoEvent(t *testing.T) { lateAbortAlone(t, 300e3) }

// TestWallModeCompletionDueBeforeLateAbort is the mirror case on real
// stores: v is due to complete a microsecond after it was admitted, long
// before its scale-out has finished aborting. A run in which a commit
// can abort holds the completion until that job's outcomes are in
// (sim.awaits); the abort then requeues v and the completion is stale.
func TestWallModeCompletionDueBeforeLateAbort(t *testing.T) { lateAbortAlone(t, 1) }

// TestFailedCheckpointIsRetriedAlone: a commit whose apply has landed
// and whose checkpoint then fails retries the checkpoint, not the
// change. The stores of job v fail the first operation after the
// scale-out's commit swapped its staged trees in, which is the first
// read of the checkpoint behind it. Re-running the apply would plan
// from the old layout against stores already in the new one; instead
// the change is applied exactly once, nothing is requeued, and v
// completes bit-verified.
func TestFailedCheckpointIsRetriedAlone(t *testing.T) {
	var committed, injected atomic.Bool
	hook := func(ctx context.Context, op store.Op) (store.Op, error) {
		if op.Name == "query" && committed.Load() && !injected.Swap(true) {
			return op, fmt.Errorf("injected: first checkpoint read after the commit")
		}
		err := op.Call(ctx)
		if op.Name == "rename" && op.Path == transform.StagingRoot("v") && err == nil {
			committed.Store(true)
		}
		return op, err
	}
	reg := obs.NewRegistry()
	res, err := Run(cluster.Cloud(4), []JobSpec{
		{Name: "v", Model: tinyGPT(), ArrivalMin: 0, DurationMin: 10, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1},
	}, nil, Options{
		Recovery: RecoveryPolicy{MaxAttempts: 2}, Metrics: reg,
		Stores: func(job string, dev cluster.DeviceID) store.Access {
			return store.Wrap(store.Local{FS: store.NewMemFS()}, hook)
		},
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, res.Render())
	}
	if !injected.Load() {
		t.Fatalf("no checkpoint read followed the commit\n%s", res.Render())
	}
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvComplete}; !reflect.DeepEqual(kindsOf(res.Timeline, "v"), want) || res.Requeues != 0 {
		t.Fatalf("v's timeline: %v with %d requeues, want %v and none\n%s", kindsOf(res.Timeline, "v"), res.Requeues, want, res.Render())
	}
	if n := reg.Counter("transform.applies").Value(); n != 1 || res.Retries != 0 {
		t.Fatalf("%d applies and %d retries for one change whose apply succeeded, want 1 and 0", n, res.Retries)
	}
	if !res.Jobs[0].Completed {
		t.Fatalf("v did not complete\n%s", res.Render())
	}
}
