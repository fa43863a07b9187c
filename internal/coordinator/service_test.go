package coordinator

import (
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/obs"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

func waitJobState(t *testing.T, svc *Service, name, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := svc.Job(name)
		if err != nil {
			t.Fatalf("Job(%s): %v", name, err)
		}
		if st.State == want {
			return st
		}
		switch st.State {
		case "completed", "rejected", "lost", "canceled":
			// Terminal: no amount of waiting leads anywhere else.
			t.Fatalf("job %s already %q, want %q", name, st.State, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", name, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitVerified waits for a completed job's bit-verification: it runs on
// the job's execution chain and lands shortly after the completion event
// in wall mode.
func waitVerified(t *testing.T, svc *Service, name string) JobStatus {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, err := svc.Job(name)
		if err != nil {
			t.Fatalf("Job(%s): %v", name, err)
		}
		if st.Verified {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s completed without bit-verification: %+v", name, st)
		}
	}
}

// TestServiceLifecycle drives the long-running control plane through a
// submit/scale/fail/cancel workload and checks the final states and
// the completion-time bit-verification.
func TestServiceLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	svc, err := StartService(cluster.Cloud(8), Options{
		WallScale: 2 * time.Millisecond,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()

	// a must still be running when its device is failed below, after b
	// has been deployed, scaled and canceled: 1500 simulated minutes are
	// 3 s of wall time at this WallScale, against well under a second of
	// steps even in a loaded -race run (40 minutes, 80 ms, were not).
	if err := svc.Submit(JobSpec{Name: "a", Model: model.GPTCustom(6, 32, 2, 64, 8),
		GPUs: 4, MinGPUs: 2, MaxGPUs: 8, DurationMin: 1500}); err != nil {
		t.Fatalf("submit a: %v", err)
	}
	if err := svc.Submit(JobSpec{Name: "b", Model: model.GPTCustom(4, 16, 2, 32, 8),
		GPUs: 2, MinGPUs: 1, MaxGPUs: 4, DurationMin: 200}); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	waitJobState(t, svc, "a", "running", 5*time.Second)
	waitJobState(t, svc, "b", "running", 5*time.Second)

	// Shrink b to 1 device, then cancel it.
	if err := svc.Scale("b", 1); err != nil {
		t.Fatalf("scale b: %v", err)
	}
	if err := svc.Cancel("b"); err != nil {
		t.Fatalf("cancel b: %v", err)
	}
	st := waitJobState(t, svc, "b", "canceled", 5*time.Second)
	if st.Verified {
		t.Fatalf("canceled job unexpectedly verified")
	}

	// Fail one of a's devices; it must recover and still complete with
	// bit-verified state.
	stA, err := svc.Job("a")
	if err != nil || len(stA.Alloc) == 0 {
		t.Fatalf("job a status: %+v err=%v", stA, err)
	}
	if err := svc.InjectFailure(cluster.DeviceID(stA.Alloc[0])); err != nil {
		t.Fatalf("inject failure: %v", err)
	}
	waitJobState(t, svc, "a", "completed", 30*time.Second)
	waitVerified(t, svc, "a")

	cs, err := svc.Cluster()
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if cs.Completed != 1 || cs.Canceled != 1 {
		t.Fatalf("cluster counts: %+v", cs)
	}
	if cs.Err != "" {
		t.Fatalf("service wedged: %s", cs.Err)
	}

	res, err := svc.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("result jobs: %+v", res.Jobs)
	}
	if _, ok := obs.Get(reg.Snapshot(), "coord.plans"); !ok {
		t.Fatalf("metrics registry saw no coordinator accounting")
	}
	// Post-stop commands are refused, not hung.
	if err := svc.Submit(JobSpec{Name: "late", Model: model.GPTCustom(4, 16, 2, 32, 8),
		GPUs: 1, DurationMin: 1}); err != ErrStopped {
		t.Fatalf("post-stop submit: %v", err)
	}
}

// TestServiceEvents checks the subscription contract: past + live
// events with no gap, and the workload's milestones all present.
func TestServiceEvents(t *testing.T) {
	svc, err := StartService(cluster.Cloud(4), Options{WallScale: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()

	if err := svc.Submit(JobSpec{Name: "j0", Model: model.GPTCustom(4, 16, 2, 32, 8),
		GPUs: 2, MinGPUs: 1, MaxGPUs: 4, DurationMin: 30}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	past, ch, cancel, err := svc.Subscribe(64)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer cancel()
	seen := map[string]bool{}
	for _, e := range past {
		seen[e.Kind] = true
	}
	deadline := time.After(15 * time.Second)
	for !seen[EvComplete] {
		select {
		case e, ok := <-ch:
			if !ok {
				t.Fatalf("subscription closed early (kinds so far: %v)", seen)
			}
			seen[e.Kind] = true
		case <-deadline:
			t.Fatalf("no completion event (kinds so far: %v)", seen)
		}
	}
	for _, k := range []string{EvSubmit, EvAdmit, EvComplete} {
		if !seen[k] {
			t.Fatalf("missing %s event: %v", k, seen)
		}
	}
}

// TestServiceClientErrors checks request-validation failures are
// refused without wedging the decision plane.
func TestServiceClientErrors(t *testing.T) {
	svc, err := StartService(cluster.Cloud(4), Options{WallScale: time.Millisecond})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()

	if err := svc.Scale("ghost", 2); !IsClientError(err) {
		t.Fatalf("scale unknown job: %v", err)
	}
	if err := svc.Cancel("ghost"); !IsClientError(err) {
		t.Fatalf("cancel unknown job: %v", err)
	}
	if err := svc.Submit(JobSpec{Name: "", Model: nil, GPUs: 1, DurationMin: 1}); !IsClientError(err) {
		t.Fatalf("bad spec: %v", err)
	}
	spec := JobSpec{Name: "dup", Model: model.GPTCustom(4, 16, 2, 32, 8), GPUs: 1, DurationMin: 500}
	if err := svc.Submit(spec); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := svc.Submit(spec); !IsClientError(err) {
		t.Fatalf("duplicate submit: %v", err)
	}
	if err := svc.InjectFailure(cluster.DeviceID(99)); !IsClientError(err) {
		t.Fatalf("bad device: %v", err)
	}
	// The plane still works after all those refusals.
	if _, err := svc.Job("dup"); err != nil {
		t.Fatalf("job after refusals: %v", err)
	}
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// TestServiceStoresFactory confirms Options.Stores feeds every device
// store of every job.
func TestServiceStoresFactory(t *testing.T) {
	made := make(chan string, 64)
	svc, err := StartService(cluster.Cloud(4), Options{
		WallScale: time.Millisecond,
		Stores: func(job string, dev cluster.DeviceID) store.Access {
			made <- fmt.Sprintf("%s/dev%d", job, dev)
			return store.Local{FS: store.NewMemFS()}
		},
	})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	if err := svc.Submit(JobSpec{Name: "s0", Model: model.GPTCustom(4, 16, 2, 32, 8),
		GPUs: 2, DurationMin: 20}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJobState(t, svc, "s0", "completed", 15*time.Second)
	if got := len(made); got != 4 {
		t.Fatalf("store factory called %d times, want 4 (one per device)", got)
	}
}

// TestServiceReleasesTerminalJobState: a long-running service must not
// keep every finished job's golden tensors and checkpoints. After N
// sequential jobs — completed, canceled while running, canceled while
// queued — no terminal job holds either, while its status, verification
// verdict and timeline stay answerable.
func TestServiceReleasesTerminalJobState(t *testing.T) {
	svc, err := StartService(cluster.Cloud(4), Options{WallScale: time.Millisecond})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	m := model.GPTCustom(4, 16, 2, 32, 8)
	var names []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("seq%d", i)
		names = append(names, name)
		if err := svc.Submit(JobSpec{Name: name, Model: m, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, DurationMin: 20}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		waitJobState(t, svc, name, "completed", 15*time.Second)
	}
	// One job canceled while it runs, one while it waits behind it.
	for _, name := range []string{"run", "wait"} {
		names = append(names, name)
		if err := svc.Submit(JobSpec{Name: name, Model: m, GPUs: 4, DurationMin: 1e6}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
	}
	waitJobState(t, svc, "run", "running", 15*time.Second)
	waitJobState(t, svc, "wait", "queued", 15*time.Second)
	// The one runtime that can be caught alive: after the cancel nothing
	// but this pointer leads to it.
	var running *jobRuntime
	if err := svc.exec(func(s *sim) error {
		running = s.exec.(*dataPlane).jobs["run"]
		return nil
	}); err != nil || running == nil {
		t.Fatalf("no runtime for the running job (err %v)", err)
	}
	for _, name := range []string{"wait", "run"} {
		if err := svc.Cancel(name); err != nil {
			t.Fatalf("cancel %s: %v", name, err)
		}
	}

	err = svc.exec(func(s *sim) error {
		if err := s.exec.join(); err != nil {
			return err
		}
		for _, name := range names {
			j := s.jobs[name]
			if rt := s.exec.(*dataPlane).jobs[name]; rt != nil {
				return fmt.Errorf("terminal job %s (%s) still has a runtime behind the executor", name, j.state)
			}
			if j.spec.Model != nil || j.decided != nil {
				return fmt.Errorf("terminal job %s (%s) still holds its model or decided PTC", name, j.state)
			}
		}
		if running.Storage != nil {
			return fmt.Errorf("the canceled job's runtime still holds its checkpoint storage")
		}
		if running.PTC != nil || running.Stores != nil || running.Model != nil {
			return fmt.Errorf("the canceled job's runtime still holds its PTC, stores or model")
		}
		if len(s.modelJobs) != 0 || s.cache.Len() != 0 {
			return fmt.Errorf("with every job terminal, %d models are still counted and %d perfmodel entries cached",
				len(s.modelJobs), s.cache.Len())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names[:4] {
		st, err := svc.Job(name)
		if err != nil || st.State != "completed" || !st.Verified {
			t.Fatalf("job %s after release: %+v (err %v)", name, st, err)
		}
	}
}

// TestServiceDeletesFinishedJobState: over wire stores shared by every
// job, as tenplex-store daemons are, a verified job and a job canceled
// while it runs leave no model tree and no checkpoint piece behind on
// any store once their chains are idle.
func TestServiceDeletesFinishedJobState(t *testing.T) {
	topo := cluster.Cloud(4)
	urls := map[cluster.DeviceID]string{}
	for _, d := range topo.Devices {
		hs := httptest.NewServer(store.NewServer(store.NewMemFS()))
		t.Cleanup(hs.Close)
		urls[d.ID] = hs.URL
	}
	svc, err := StartService(topo, Options{
		WallScale: time.Millisecond,
		Stores: func(_ string, dev cluster.DeviceID) store.Access {
			return &store.Client{Base: urls[dev]}
		},
	})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	m := model.GPTCustom(4, 16, 2, 32, 8)
	if err := svc.Submit(JobSpec{Name: "done", Model: m, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, DurationMin: 20}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitVerified(t, svc, "done")
	if err := svc.Submit(JobSpec{Name: "gone", Model: m, GPUs: 4, DurationMin: 1e6}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for {
		st := waitJobState(t, svc, "gone", "running", 15*time.Second)
		if st.Deployed {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := svc.Cancel("gone"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := svc.exec(func(s *sim) error { return s.exec.join() }); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"done", "gone"} {
		for d, u := range urls {
			cl := &store.Client{Base: u}
			for _, tree := range []string{"model", "ckpt"} {
				if names, _ := cl.List("/job/" + id + "/" + tree); len(names) != 0 {
					t.Errorf("store of dev %d still holds %v under /job/%s/%s", d, names, id, tree)
				}
			}
			if err := cl.Delete("/job/" + id); err != nil {
				t.Errorf("store of dev %d: delete /job/%s: %v", d, id, err)
			}
		}
	}
}

// TestServiceHeapFlatAcrossFinishedJobs: a finished job leaves behind
// its status and its timeline entries, not its PTC, compiled index or
// model. Every job brings a model of its own, as every POST /v1/jobs
// does; the live heap after job 200 must sit within a fixed margin of
// what it was after job 50. It reads HeapAlloc, the bytes of live
// objects after the two collections: HeapInuse counts whole spans, so
// it moves with fragmentation (by over 512 KiB under -race) as well as
// with what the service retains.
func TestServiceHeapFlatAcrossFinishedJobs(t *testing.T) {
	svc, err := StartService(cluster.Cloud(4), Options{WallScale: 100 * time.Microsecond})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	liveHeap := func() uint64 {
		err := svc.exec(func(s *sim) error { return s.exec.join() })
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC() // twice: a sync.Pool's contents survive one cycle
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var at50 uint64
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("j%d", i)
		if err := svc.Submit(JobSpec{Name: name, Model: model.GPTCustom(4, 16, 2, 32, 8),
			GPUs: 4, MinGPUs: 2, MaxGPUs: 4, DurationMin: 5}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		waitJobState(t, svc, name, "completed", 15*time.Second)
		if i == 49 {
			at50 = liveHeap()
		}
	}
	at200 := liveHeap()
	t.Logf("HeapAlloc after 50 jobs %d KiB, after 200 jobs %d KiB", at50>>10, at200>>10)
	// 150 jobs' timeline entries and statuses come to about
	// 1 KiB a job (160 KiB here); a model alone to 5, a PTC with its index
	// to 20-40, the in-memory stores of the default runtime to 200.
	const margin = 512 << 10
	if at200 > at50+margin {
		t.Fatalf("heap grew %d KiB over 150 finished jobs (margin %d KiB): terminal jobs are holding state",
			(at200-at50)>>10, margin>>10)
	}
}

// TestServicePoolHoldsLiveChainsOnly: a job's task chain is forgotten
// with its terminal command (verify or release), so after many finished
// and canceled jobs the pool holds one chain per job still running.
func TestServicePoolHoldsLiveChainsOnly(t *testing.T) {
	svc, err := StartService(cluster.Cloud(8), Options{
		WallScale: 100 * time.Microsecond,
		Workers:   4, // a pool whatever GOMAXPROCS is: with one worker tasks run inline
	})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	spec := func(name string, min float64) JobSpec {
		return JobSpec{Name: name, Model: model.GPTCustom(4, 16, 2, 32, 8),
			GPUs: 2, MinGPUs: 2, MaxGPUs: 2, DurationMin: min}
	}
	if err := svc.Submit(spec("live", 1e6)); err != nil {
		t.Fatalf("submit live: %v", err)
	}
	waitJobState(t, svc, "live", "running", 5*time.Second)
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("j%d", i)
		if err := svc.Submit(spec(name, 5)); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		waitJobState(t, svc, name, "completed", 15*time.Second)
	}
	if err := svc.Submit(spec("gone", 1e6)); err != nil {
		t.Fatalf("submit gone: %v", err)
	}
	waitJobState(t, svc, "gone", "running", 5*time.Second)
	if err := svc.Cancel("gone"); err != nil {
		t.Fatalf("cancel gone: %v", err)
	}
	waitJobState(t, svc, "gone", "canceled", 5*time.Second)
	err = svc.exec(func(s *sim) error {
		if err := s.exec.join(); err != nil {
			return err
		}
		if got := len(s.exec.(*dataPlane).pool.tail); got != 1 {
			return fmt.Errorf("pool holds %d chains after 41 finished jobs, want the live job's 1", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gatedStore is an in-process device store whose uploads wait for a
// gate: with the gate shut no job's state can land anywhere, which is
// how a test holds the data plane still while it drives the decision
// plane.
type gatedStore struct {
	store.Access
	gate <-chan struct{}
}

func (g gatedStore) Upload(path string, t *tensor.Tensor) error {
	<-g.gate
	return g.Access.Upload(path, t)
}

func (g gatedStore) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	<-g.gate
	return g.Access.UploadFrom(path, dt, shape, r)
}

// TestSubmitDoesNotWaitForDeploy: the decision plane never waits for the
// data plane. With every device store refusing to take a byte, job a is
// submitted, admitted and scaled out, job b is submitted, a is preempted
// for it and b admitted, and status reads answer — all planned against
// the decided PTC while a's deploy has not moved. Once the stores open,
// the queued work runs and both jobs end bit-verified with the resizes
// the same scenario gives when nothing is held back (a: out at
// admission, in for b, out again when b is done).
func TestSubmitDoesNotWaitForDeploy(t *testing.T) {
	gate := make(chan struct{})
	var open sync.Once
	openGate := func() { open.Do(func() { close(gate) }) }
	svc, err := StartService(cluster.Cloud(4), Options{
		WallScale: time.Millisecond,
		Workers:   4, // a pool whatever GOMAXPROCS is: with one worker tasks run inline
		Stores: func(string, cluster.DeviceID) store.Access {
			return gatedStore{Access: store.Local{FS: store.NewMemFS()}, gate: gate}
		},
	})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	defer openGate() // Stop joins the chains, which wait for the gate

	// within runs one call against the service and fails the test if it
	// has not answered in far longer than any decision takes.
	within := func(what string, call func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited for the data plane: no answer in 5 s with every store upload blocked", what)
		}
	}
	m := model.GPTCustom(4, 16, 2, 32, 8)
	within("Submit(a)", func() error {
		return svc.Submit(JobSpec{Name: "a", Model: m, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, DurationMin: 600})
	})
	within("Submit(b)", func() error {
		return svc.Submit(JobSpec{Name: "b", Model: m, GPUs: 2, DurationMin: 100})
	})
	var stA JobStatus
	within("Job(a)", func() (err error) { stA, err = svc.Job("a"); return err })
	var cs ClusterStatus
	within("Cluster()", func() (err error) { cs, err = svc.Cluster(); return err })
	if stA.State != "running" || stA.Deployed || stA.Resizes != 2 || cs.Running != 2 || cs.Free != 0 {
		t.Fatalf("with the stores shut: a = %+v, cluster = %+v; want a running, not deployed, resized twice, and both jobs leased", stA, cs)
	}
	var past []TimelineEvent
	within("Subscribe()", func() (err error) {
		var cancel func()
		if past, _, cancel, err = svc.Subscribe(16); err == nil {
			cancel()
		}
		return err
	})
	var kinds []string
	for _, e := range past {
		if e.Job == "a" {
			kinds = append(kinds, e.Kind)
		}
	}
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvScaleIn}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("a's timeline with the stores shut: %v, want %v", kinds, want)
	}

	openGate()
	for name, resizes := range map[string]int{"a": 3, "b": 0} {
		waitJobState(t, svc, name, "completed", 30*time.Second)
		if st := waitVerified(t, svc, name); !st.Deployed || st.Resizes != resizes {
			t.Fatalf("job %s: deployed %v, %d resizes, want deployed and %d resizes", name, st.Deployed, st.Resizes, resizes)
		}
	}
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestServiceFarCompletionDoesNotSpin: the API takes any positive
// duration_min, and a completion further off than a time.Duration can
// express used to overflow into a wake-up due at once, again and again —
// the loop settling and checking invariants at full speed for as long as
// the job ran. An idle service with such a job sleeps.
func TestServiceFarCompletionDoesNotSpin(t *testing.T) {
	svc, err := StartService(cluster.Cloud(4), Options{WallScale: time.Second})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	if err := svc.Submit(JobSpec{Name: "far", Model: model.GPTCustom(4, 16, 2, 32, 8),
		GPUs: 4, DurationMin: 1e300}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	res, err := svc.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// One sweep for the submit and one for the deploy's outcome; a
	// spinning loop makes tens of thousands.
	if res.InvariantChecks > 200 {
		t.Fatalf("%d invariant sweeps in 100 ms on an idle service: the loop is spinning", res.InvariantChecks)
	}
}

// TestServiceRefusedScaleLeavesJobUntouched: a refused request leaves the
// decision plane as it found it — internal/api hands its quota
// reservation back on that promise. Job a holds exactly 4 of 8 devices
// and cannot run on 3; the refusal used to come after the spec had been
// rewritten to gpus 3, min 3.
func TestServiceRefusedScaleLeavesJobUntouched(t *testing.T) {
	svc, err := StartService(cluster.Cloud(8), Options{WallScale: time.Second})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	if err := svc.Submit(JobSpec{Name: "a", Model: tinyGPT(), GPUs: 4, DurationMin: 1e6}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	status := func() JobStatus {
		t.Helper()
		st, err := svc.Job("a")
		if err != nil {
			t.Fatal(err)
		}
		st.ServedMin, st.Deployed = 0, false // the clock runs and the deploy lands meanwhile
		return st
	}
	before := status()
	if err := svc.Scale("a", 3); !IsClientError(err) {
		t.Fatalf("Scale(a, 3) on a job bounded [4, 4]: %v, want a client error", err)
	}
	if after := status(); !reflect.DeepEqual(before, after) || after.GPUs != 4 || after.MinGPUs != 4 || len(after.Alloc) != 4 {
		t.Fatalf("the refused scale changed the job:\nbefore %+v\nafter  %+v", before, after)
	}
	if cs, err := svc.Cluster(); err != nil || cs.Err != "" || cs.Leased != 4 {
		t.Fatalf("cluster after the refusal: %+v (err %v)", cs, err)
	}
}

// TestServiceRequestsAreTracedDecisions: a submit, a scale, an injected
// failure and a cancel each reach the decision plane as one event
// through the shared step, so a traced service records one decision
// span for each, and coord.events counts every decision span there is.
func TestServiceRequestsAreTracedDecisions(t *testing.T) {
	tr := obs.New(obs.Options{Level: obs.LevelPhases})
	svc, err := StartService(cluster.Cloud(8), Options{WallScale: time.Second, Obs: tr})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	if err := svc.Submit(JobSpec{Name: "a", Model: tinyGPT(), GPUs: 4, MinGPUs: 2, MaxGPUs: 4, DurationMin: 1e6}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := svc.Scale("a", 2); err != nil {
		t.Fatalf("scale: %v", err)
	}
	if err := svc.InjectFailure(7); err != nil {
		t.Fatalf("inject failure: %v", err)
	}
	if err := svc.Cancel("a"); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := svc.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	byName, total := map[string]int64{}, int64(0)
	for _, sp := range tr.Export().Spans {
		if sp.Cat == obs.CatDecision {
			byName[sp.Name]++
			total++
		}
	}
	for _, name := range []string{"decision/arrival", "decision/scale", "decision/failure", "decision/cancel"} {
		if byName[name] != 1 {
			t.Fatalf("%d %s spans, want 1 (all: %v)", byName[name], name, byName)
		}
	}
	if events := svc.Metrics().Counter("coord.events").Value(); events != total {
		t.Fatalf("coord.events = %d with %d decision spans recorded", events, total)
	}
}

// TestServiceCompletionDueBeforeLateAbort is
// TestWallModeCompletionDueBeforeLateAbort behind StartService. A Service
// with a retry budget can see a commit abort, so the wall driver holds v's
// completion — due a microsecond after its admission — until v's
// scale-out has finished aborting: the abort requeues v, the re-admission
// restores it, and v ends bit-verified. A loop that steps the completion
// when it is due verifies a runtime that has rolled back ("runtime alloc
// has 2 devices, decided 4") and wedges.
func TestServiceCompletionDueBeforeLateAbort(t *testing.T) {
	reg := obs.NewRegistry()
	pol := RecoveryPolicy{MaxAttempts: 2}
	fault := &abortFirstChange{job: "v", attempts: int64(pol.MaxAttempts), after: 1, plans: reg.Counter("coord.plans")}
	svc, err := StartService(cluster.Cloud(8), Options{
		Workers: 4, WallScale: time.Microsecond, DefragMaxSec: -1, Recovery: pol, Metrics: reg,
		Stores: func(job string, dev cluster.DeviceID) store.Access {
			acc := store.Access(store.Local{FS: store.NewMemFS()})
			if job == fault.job {
				acc = abortingStore{Access: acc, dev: dev, abortFirstChange: fault}
			}
			return acc
		},
	})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	defer svc.Stop()
	if err := svc.Submit(JobSpec{Name: "v", Model: tinyGPT(), DurationMin: 1, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if cs, err := svc.Cluster(); err != nil || cs.Err != "" {
			t.Fatalf("service wedged: %s (err %v)", cs.Err, err)
		}
		if st, err := svc.Job("v"); err != nil || st.Verified {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("v did not end bit-verified")
		}
	}
	res, err := svc.Stop()
	if err != nil {
		t.Fatalf("Stop: %v\n%s", err, res.Render())
	}
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvRequeue, EvAdmit, EvScaleOut, EvComplete}; !reflect.DeepEqual(kindsOf(res.Timeline, "v"), want) || res.Requeues != 1 {
		t.Fatalf("v's timeline: %v with %d requeues, want %v and one\n%s", kindsOf(res.Timeline, "v"), res.Requeues, want, res.Render())
	}
	if got := fault.rollbacks.Load(); got != fault.attempts {
		t.Fatalf("%d rollbacks, want the first change's %d attempts to fail and nothing else", got, fault.attempts)
	}
}
