package coordinator

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/obs"
)

// fakeExec is the executor with no data behind it: a command is queued
// on its job's chain and runs when the test says so, with the fate the
// test gives it, so the order in which outcomes reach the loop is the
// test's to choose — no store, no goroutine, no clock. What it keeps per
// job is what the decision plane may ask about: the allocation and PTC
// the job's runtime would hold.
type fakeExec struct {
	s       *sim
	chains  map[string][]command
	held    map[string]*fakeRuntime
	replans int
}

type fakeRuntime struct {
	alloc cluster.Allocation
	ptc   *core.PTC
}

// newFakeSim builds a sim over 8 devices whose executor is a fakeExec,
// with the jobs registered and nothing stepped yet.
func newFakeSim(t *testing.T, opts Options, specs ...JobSpec) (*sim, *fakeExec) {
	t.Helper()
	s, err := newSim(cluster.Cloud(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeExec{s: s, chains: map[string][]command{}, held: map[string]*fakeRuntime{}}
	s.exec = f
	for _, spec := range specs {
		if _, err := s.addJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	return s, f
}

func (f *fakeExec) do(c command) error {
	f.chains[c.job] = append(f.chains[c.job], c)
	return nil
}

// finish runs the oldest command queued for job and posts its outcome;
// abort makes a commit fail every attempt and roll back.
func (f *fakeExec) finish(job string, abort bool) {
	c := f.chains[job][0] // a test that finishes what was never queued panics here
	f.chains[job] = f.chains[job][1:]
	out := &outcome{kind: c.kind, job: job, p: c.p}
	rt := f.held[job]
	switch c.kind {
	case cmdDeploy:
		f.held[job] = &fakeRuntime{alloc: c.alloc, ptc: c.ptc}
	case cmdRestore:
		f.held[job] = &fakeRuntime{alloc: c.p.ch.Alloc, ptc: c.p.ch.To}
		out.commitOutcome = commitOutcome{attempts: 1, ptc: c.p.ch.To}
	case cmdCommit:
		if c.p.ch.From != rt.ptc {
			f.replans++ // jobRuntime.rebase
		}
		if abort {
			out.commitOutcome = commitOutcome{attempts: f.s.opts.Recovery.MaxAttempts, aborted: true,
				err: errors.New("injected"), ptc: rt.ptc}
			break
		}
		rt.alloc, rt.ptc = c.p.ch.Alloc, c.p.ch.To
		out.commitOutcome = commitOutcome{attempts: 1, ptc: rt.ptc}
	case cmdVerify:
		out.err = f.audit(job, c.alloc)
		delete(f.held, job)
	case cmdRelease:
		delete(f.held, job)
		return
	}
	f.s.mail.post(out)
}

func (f *fakeExec) join() error {
	for job := range f.chains {
		_ = f.joinJob(job)
	}
	return nil
}

func (f *fakeExec) joinJob(job string) error {
	for len(f.chains[job]) > 0 {
		f.finish(job, false)
	}
	return nil
}

func (f *fakeExec) audit(job string, decided cluster.Allocation) error {
	rt := f.held[job]
	if rt == nil {
		return nil
	}
	if len(rt.alloc) != len(decided) {
		return fmt.Errorf("coordinator: %s runtime alloc has %d devices, decided %d", job, len(rt.alloc), len(decided))
	}
	return nil
}

// arrive steps job's arrival at minute at.
func arrive(t *testing.T, s *sim, job string, at float64) {
	t.Helper()
	if err := s.step(event{time: at, kind: evArrival, job: job}); err != nil {
		t.Fatal(err)
	}
}

// deliver finishes job's oldest command with the given fate and steps
// the outcome.
func deliver(t *testing.T, s *sim, f *fakeExec, job string, abort bool) {
	t.Helper()
	f.finish(job, abort)
	if err := s.receive(); err != nil {
		t.Fatal(err)
	}
}

// runOut steps the heap empty with every command succeeding the moment
// it is queued, settles, and checks proper completion: at every terminal
// job no lease, no decided PTC, and nothing pending anywhere.
func runOut(t *testing.T, s *sim, f *fakeExec) {
	t.Helper()
	for {
		if err := f.join(); err != nil {
			t.Fatal(err)
		}
		if err := s.receive(); err != nil {
			t.Fatal(err)
		}
		e, ok := s.pop()
		if !ok {
			break
		}
		if err := s.step(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if s.inflight != 0 || len(s.pending) != 0 || len(s.mail.take()) != 0 {
		t.Fatalf("%d changes in flight, %d pending after the run settled", s.inflight, len(s.pending))
	}
	for name, j := range s.jobs {
		if j.state != jobDone {
			t.Fatalf("job %s ended %s", name, j.state)
		}
		if len(s.ledger.Allocation(name)) != 0 || j.decided != nil || j.inflight != 0 || len(f.chains[name]) != 0 || f.held[name] != nil {
			t.Fatalf("job %s completed with a lease, a decided PTC, work in flight or state behind the executor", name)
		}
	}
}

// kindsOf is job's part of a timeline, by event kind.
func kindsOf(timeline []TimelineEvent, job string) []string {
	var kinds []string
	for _, e := range timeline {
		if e.Job == job {
			kinds = append(kinds, e.Kind)
		}
	}
	return kinds
}

var lateAbortOpts = Options{Mode: ModeWall, DefragMaxSec: -1, Recovery: RecoveryPolicy{MaxAttempts: 2}}

// TestFakeLateAbortUnderLaterChangeReplans replays
// TestWallModeReplansAfterLateAbort's protocol with the order of
// outcomes chosen here instead of by a sleeping store: v's scale-out to
// 8 aborts after its shrink to 4 (for r) was planned on top of it. The
// abort is superseded — nobody is requeued — the shrink's commit finds
// the runtime elsewhere than planned and re-plans, and its outcome
// brings the decided PTC back to what the runtime holds.
func TestFakeLateAbortUnderLaterChangeReplans(t *testing.T) {
	s, f := newFakeSim(t, lateAbortOpts,
		JobSpec{Name: "v", Model: tinyGPT(), DurationMin: 200, GPUs: 2, MinGPUs: 2, MaxGPUs: 8, Seed: 1},
		JobSpec{Name: "r", Model: tinyGPT(), ArrivalMin: 1, DurationMin: 50, GPUs: 4, Seed: 2})
	arrive(t, s, "v", 0)         // admit on 2, scale out to 8
	deliver(t, s, f, "v", false) // the deploy lands
	arrive(t, s, "r", 1)         // v shrunk to 4, planned from the 8-device PTC
	deliver(t, s, f, "v", true)  // ... and only now the scale-out aborts
	if s.requeues != 0 || s.retries != 1 {
		t.Fatalf("superseded abort: %d requeues, %d retries, want 0 and 1", s.requeues, s.retries)
	}
	deliver(t, s, f, "v", false) // the shrink commits, from the 2-device PTC it rolled back to
	if f.replans != 1 {
		t.Fatalf("%d commits re-planned, want the shrink alone", f.replans)
	}
	if v := s.jobs["v"]; v.decided != f.held["v"].ptc || len(f.held["v"].alloc) != 4 {
		t.Fatalf("decided PTC did not converge on what the runtime holds (%d devices)", len(f.held["v"].alloc))
	}
	runOut(t, s, f)
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvScaleIn, EvScaleOut, EvComplete}; !reflect.DeepEqual(kindsOf(s.timeline, "v"), want) {
		t.Fatalf("v's timeline: %v, want %v", kindsOf(s.timeline, "v"), want)
	}
	if s.requeues != 0 || f.replans != 1 {
		t.Fatalf("%d requeues, %d re-plans by the end, want 0 and 1", s.requeues, f.replans)
	}
}

// TestFakeLateAbortRequeuesAndRestores: with nothing decided after it,
// the abort requeues v the moment its outcome is stepped — no heap event
// is needed for it to be seen — and the re-admission that follows
// restores it; the scale-out decided in the same breath is planned from
// the restore's target and has nothing to re-plan.
func TestFakeLateAbortRequeuesAndRestores(t *testing.T) {
	s, f := newFakeSim(t, lateAbortOpts,
		JobSpec{Name: "v", Model: tinyGPT(), DurationMin: 300, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1})
	arrive(t, s, "v", 0)
	deliver(t, s, f, "v", false) // deploy
	deliver(t, s, f, "v", true)  // the scale-out aborts: requeue, re-admit, scale out again
	v := s.jobs["v"]
	if s.requeues != 1 || s.retries != 1 || v.state != jobRunning || v.deployed || len(f.chains["v"]) != 2 {
		t.Fatalf("after the abort: %d requeues, %d retries, v %s (deployed %v) with %d commands queued; want 1, 1, running, not deployed, restore + commit",
			s.requeues, s.retries, v.state, v.deployed, len(f.chains["v"]))
	}
	deliver(t, s, f, "v", false) // restore
	deliver(t, s, f, "v", false) // scale-out
	if !v.deployed || v.decided != f.held["v"].ptc || f.replans != 0 {
		t.Fatalf("after the restore: deployed %v, %d re-plans, decided converged %v", v.deployed, f.replans, v.decided == f.held["v"].ptc)
	}
	runOut(t, s, f)
	if want := []string{EvSubmit, EvAdmit, EvScaleOut, EvRequeue, EvAdmit, EvScaleOut, EvComplete}; !reflect.DeepEqual(kindsOf(s.timeline, "v"), want) {
		t.Fatalf("v's timeline: %v, want %v", kindsOf(s.timeline, "v"), want)
	}
}

// TestFakeCompletionAwaitsPossibleAbort is the mirror case: the abort
// lands after the job's completion has come due. A run in which a commit
// can abort holds that completion — at the head of the heap, nothing
// else decided meanwhile — until the job's outcomes are in; the abort
// then requeues the job and the completion is stale. A fail-fast run
// (the Service) never holds anything.
func TestFakeCompletionAwaitsPossibleAbort(t *testing.T) {
	spec := JobSpec{Name: "v", Model: tinyGPT(), DurationMin: 300, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1}
	failFast, _ := newFakeSim(t, Options{Mode: ModeWall, DefragMaxSec: -1}, spec)
	arrive(t, failFast, "v", 0)
	if e, _ := failFast.pop(); e.kind != evComplete || failFast.awaits(e) {
		t.Fatalf("a run in which no commit can abort holds its completion (%+v)", e)
	}

	s, f := newFakeSim(t, lateAbortOpts, spec)
	arrive(t, s, "v", 0)
	deliver(t, s, f, "v", false) // deploy
	e, ok := s.pop()
	if !ok || e.kind != evComplete || !s.awaits(e) {
		t.Fatalf("v's completion (%+v) is not held while its scale-out may still abort", e)
	}
	s.pushAt(e)
	deliver(t, s, f, "v", true) // it does
	if e2, _ := s.pop(); e2.ver == e.ver || !s.awaits(e2) {
		t.Fatalf("after the requeue the old completion is still live, or the new one is not held for the restore")
	} else {
		s.pushAt(e2)
	}
	runOut(t, s, f)
	if s.requeues != 1 || s.jobs["v"].resizes != 2 {
		t.Fatalf("%d requeues, %d resizes, want 1 and 2", s.requeues, s.jobs["v"].resizes)
	}
}

// TestEveryEventKindIsOneDecision: whatever reaches the decision plane —
// scripted event, Service request, outcome — goes through step, and a
// traced run records exactly one decision span and one coord.events
// increment for it.
func TestEveryEventKindIsOneDecision(t *testing.T) {
	tr := obs.New(obs.Options{Det: true, Level: obs.LevelPhases})
	s, f := newFakeSim(t, Options{Mode: ModeWall, Obs: tr},
		JobSpec{Name: "a", Model: tinyGPT(), DurationMin: 100, GPUs: 4, MinGPUs: 2, MaxGPUs: 4, Seed: 1},
		JobSpec{Name: "b", Model: tinyGPT(), DurationMin: 100, GPUs: 2, Seed: 2})
	decisions := func() (map[string]int, int) {
		byName, total := map[string]int{}, 0
		for _, sp := range tr.Export().Spans {
			if sp.Cat == obs.CatDecision {
				byName[sp.Name]++
				total++
			}
		}
		return byName, total
	}
	check := func(e event) {
		t.Helper()
		before, total := decisions()
		events := s.reg.Counter("coord.events").Value()
		if err := s.step(e); err != nil {
			t.Fatalf("%s: %v", evNames[e.kind], err)
		}
		after, totalAfter := decisions()
		name := "decision/" + evNames[e.kind]
		if after[name] != before[name]+1 || totalAfter != total+1 || s.reg.Counter("coord.events").Value() != events+1 {
			t.Fatalf("%s: %d new %s spans, %d new decision spans, %d coord.events; want one of each", evNames[e.kind],
				after[name]-before[name], name, totalAfter-total, s.reg.Counter("coord.events").Value()-events)
		}
	}
	check(event{kind: evArrival, job: "a"})
	f.finish("a", false)
	check(event{kind: evOutcome, job: "a", out: s.mail.take()[0]})
	check(event{kind: evArrival, job: "b"})
	check(event{kind: evScale, job: "a", gpus: 2})
	a := s.jobs["a"]
	check(event{kind: evSpotNotice, dev: a.alloc[0], factor: 5})
	check(event{kind: evSpotDeadline, dev: a.alloc[0]})
	check(event{kind: evFailure, dev: 7})
	check(event{kind: evDevRecover, dev: 7})
	check(event{kind: evLinkDegrade, worker: 0, factor: 0.5})
	check(event{kind: evLinkRestore, worker: 0})
	check(event{kind: evCancel, job: "b"})
	check(event{kind: evComplete, job: "a", ver: a.ver})
	if byName, _ := decisions(); len(byName) != int(evOutcome)+1 {
		t.Fatalf("%d decision span names for %d event kinds: %v", len(byName), int(evOutcome)+1, byName)
	}
}
