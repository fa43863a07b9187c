package coordinator

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/job"
	"tenplex/internal/obs"
)

// fakeExec is the executor with no data behind it: a command is queued
// on its job's chain and runs when the test says so, with the fate the
// test gives it, so the order in which outcomes reach the core is the
// test's to choose — no store, no goroutine, no clock. What it keeps per
// job is what the decision plane may ask about: the allocation and PTC
// the job's runtime would hold. A commit goes through the runtime's own
// re-plan rule (jobRuntime.rebase) and fails, as a real apply would, if
// it still reads from a placement the runtime does not hold.
type fakeExec struct {
	s       *sim
	post    func(*outcome)
	chains  map[string][]command
	held    map[string]*fakeRuntime
	replans int
	// script, when set, names the job whose command join runs next and
	// how it goes; without one join runs every command once, successfully.
	script func() (job string, attempts int, aborted bool)
}

type fakeRuntime struct {
	rt    jobRuntime // Model and Topo, for rebase; PTC is the held placement's
	alloc cluster.Allocation
}

// newFakeDriver builds a core over 8 devices whose executor is a fakeExec,
// with the jobs registered and nothing stepped yet.
func newFakeDriver(t testing.TB, opts Options, specs ...JobSpec) (*driver, *fakeExec) {
	t.Helper()
	d, err := newDriver(cluster.Cloud(8), opts)
	if err != nil {
		t.Fatal(err)
	}
	d.s.exec = newFake(d)
	for _, spec := range specs {
		if _, err := d.s.addJob(spec); err != nil {
			t.Fatal(err)
		}
	}
	return d, d.s.exec.(*fakeExec)
}

func newFake(d *driver) *fakeExec {
	return &fakeExec{s: d.s, post: d.mail.post, chains: map[string][]command{}, held: map[string]*fakeRuntime{}}
}

func (f *fakeExec) do(c command) error {
	f.chains[c.job] = append(f.chains[c.job], c)
	return nil
}

// finish runs the oldest command queued for job and posts its outcome;
// abort makes a commit fail every attempt and roll back.
func (f *fakeExec) finish(job string, abort bool) error {
	return f.finishAs(job, max(f.s.opts.Recovery.MaxAttempts, 1), abort)
}

// finishAs runs the oldest command queued for job; a commit takes
// attempts attempts and aborts or lands. It returns the error a fatal
// outcome carries.
func (f *fakeExec) finishAs(name string, attempts int, aborted bool) error {
	c := f.chains[name][0] // a test that finishes what was never queued panics here
	f.chains[name] = f.chains[name][1:]
	out := &outcome{kind: c.kind, job: name, p: c.p}
	h := f.held[name]
	switch c.kind {
	case cmdDeploy:
		f.held[name] = &fakeRuntime{alloc: c.alloc, rt: jobRuntime{Runtime: job.Runtime{
			Name: name, Model: c.model, Topo: f.s.topo, PTC: c.ptc, Metrics: f.s.reg}}}
	case cmdRestore:
		h.rt.PTC, h.alloc = c.p.ch.To, c.p.ch.Alloc
		out.commitOutcome = commitOutcome{attempts: 1, ptc: h.rt.PTC}
	case cmdCommit:
		from := c.p.ch.From
		if err := h.rt.rebase(c.p.ch); err != nil {
			out.err = err
			break
		}
		if from != c.p.ch.From {
			f.replans++
		}
		if c.p.ch.From != h.rt.PTC {
			out.err = fmt.Errorf("coordinator: job %s: commit planned from a placement the runtime does not hold", name)
			break
		}
		if aborted {
			out.commitOutcome = commitOutcome{attempts: attempts, aborted: true, err: errors.New("injected"), ptc: h.rt.PTC}
			break
		}
		h.rt.PTC, h.alloc = c.p.ch.To, c.p.ch.Alloc
		out.commitOutcome = commitOutcome{attempts: attempts, ptc: h.rt.PTC}
	case cmdVerify:
		out.err = f.audit(name, c.alloc)
		delete(f.held, name)
	case cmdRelease:
		delete(f.held, name)
		return nil
	}
	f.post(out)
	if out.aborted {
		return nil
	}
	return out.err
}

// join runs everything queued: in the order the script says, or job by
// job in name order. The first fatal outcome is its error.
func (f *fakeExec) join() error {
	var first error
	for _, name := range slices.Sorted(maps.Keys(f.chains)) {
		for f.releases(name); len(f.chains[name]) > 0; f.releases(name) {
			job, attempts, aborted := name, 1, false
			if f.script != nil {
				job, attempts, aborted = f.script()
				if f.releases(job); len(f.chains[job]) == 0 {
					return fmt.Errorf("the script runs a command of %s, which has none queued", job)
				}
			}
			if err := f.finishAs(job, attempts, aborted); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// releases runs the release commands at the head of job's chain: they
// report nothing.
func (f *fakeExec) releases(job string) {
	for len(f.chains[job]) > 0 && f.chains[job][0].kind == cmdRelease {
		_ = f.finishAs(job, 1, false)
	}
}

func (f *fakeExec) audit(job string, decided cluster.Allocation) error {
	h := f.held[job]
	if h == nil {
		return nil
	}
	if len(h.alloc) != len(decided) {
		return fmt.Errorf("coordinator: job %s: runtime alloc has %d devices, decided %d", job, len(h.alloc), len(decided))
	}
	for _, dev := range h.alloc {
		if !decided.Contains(dev) {
			return fmt.Errorf("coordinator: job %s: runtime holds device %d outside its decided allocation", job, dev)
		}
	}
	return nil
}

// arrive steps job's arrival at minute at.
func arrive(t *testing.T, d *driver, job string, at float64) {
	t.Helper()
	if err := d.step(event{time: at, kind: evArrival, job: job}); err != nil {
		t.Fatal(err)
	}
}

// deliver finishes job's oldest command with the given fate and steps
// the outcome.
func deliver(t *testing.T, d *driver, f *fakeExec, job string, abort bool) {
	t.Helper()
	if err := f.finish(job, abort); err != nil {
		t.Fatal(err)
	}
	if err := d.receive(); err != nil {
		t.Fatal(err)
	}
}

// runOut steps the heap empty with every command succeeding the moment
// it is queued, settles, and checks proper completion.
func runOut(t *testing.T, d *driver, f *fakeExec) {
	t.Helper()
	s := d.s
	for {
		if err := f.join(); err != nil {
			t.Fatal(err)
		}
		if err := d.receive(); err != nil {
			t.Fatal(err)
		}
		e, ok := s.pop()
		if !ok {
			break
		}
		if err := d.step(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.settle(); err != nil {
		t.Fatalf("settle: %v", err)
	}
	for name, j := range s.jobs {
		if j.state != jobDone {
			t.Fatalf("job %s ended %s", name, j.state)
		}
	}
	if err := properlyComplete(d, f); err != nil {
		t.Fatal(err)
	}
}

// properlyComplete is proper completion, the soundness property of a
// workflow net that every case ends leaving nothing behind: at every
// terminal job no lease, no decided PTC, nothing in flight, nothing on
// its chain and nothing held behind the executor; and nothing pending or
// undelivered anywhere.
func properlyComplete(d *driver, f *fakeExec) error {
	s := d.s
	if s.inflight != 0 || len(s.pending) != 0 || len(d.mail.take()) != 0 {
		return fmt.Errorf("%d changes in flight, %d pending after the run settled", s.inflight, len(s.pending))
	}
	for _, name := range s.order {
		j := s.jobs[name]
		if j.state == jobQueued || j.state == jobRunning {
			continue
		}
		if len(s.ledger.Allocation(name)) != 0 || j.decided != nil || j.inflight != 0 || len(f.chains[name]) != 0 || f.held[name] != nil {
			return fmt.Errorf("job %s ended %s with a lease, a decided PTC, work in flight or state behind the executor", name, j.state)
		}
	}
	return nil
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
	d, f := newFakeDriver(t, lateAbortOpts,
		JobSpec{Name: "v", Model: tinyGPT(), DurationMin: 200, GPUs: 2, MinGPUs: 2, MaxGPUs: 8, Seed: 1},
		JobSpec{Name: "r", Model: tinyGPT(), ArrivalMin: 1, DurationMin: 50, GPUs: 4, Seed: 2})
	s := d.s
	arrive(t, d, "v", 0)         // admit on 2, scale out to 8
	deliver(t, d, f, "v", false) // the deploy lands
	arrive(t, d, "r", 1)         // v shrunk to 4, planned from the 8-device PTC
	deliver(t, d, f, "v", true)  // ... and only now the scale-out aborts
	if s.requeues != 0 || s.retries != 1 {
		t.Fatalf("superseded abort: %d requeues, %d retries, want 0 and 1", s.requeues, s.retries)
	}
	deliver(t, d, f, "v", false) // the shrink commits, from the 2-device PTC it rolled back to
	if f.replans != 1 {
		t.Fatalf("%d commits re-planned, want the shrink alone", f.replans)
	}
	if v := s.jobs["v"]; v.decided != f.held["v"].rt.PTC || len(f.held["v"].alloc) != 4 {
		t.Fatalf("decided PTC did not converge on what the runtime holds (%d devices)", len(f.held["v"].alloc))
	}
	runOut(t, d, f)
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
	d, f := newFakeDriver(t, lateAbortOpts,
		JobSpec{Name: "v", Model: tinyGPT(), DurationMin: 300, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1})
	s := d.s
	arrive(t, d, "v", 0)
	deliver(t, d, f, "v", false) // deploy
	deliver(t, d, f, "v", true)  // the scale-out aborts: requeue, re-admit, scale out again
	v := s.jobs["v"]
	if s.requeues != 1 || s.retries != 1 || v.state != jobRunning || v.deployed || len(f.chains["v"]) != 2 {
		t.Fatalf("after the abort: %d requeues, %d retries, v %s (deployed %v) with %d commands queued; want 1, 1, running, not deployed, restore + commit",
			s.requeues, s.retries, v.state, v.deployed, len(f.chains["v"]))
	}
	deliver(t, d, f, "v", false) // restore
	deliver(t, d, f, "v", false) // scale-out
	if !v.deployed || v.decided != f.held["v"].rt.PTC || f.replans != 0 {
		t.Fatalf("after the restore: deployed %v, %d re-plans, decided converged %v", v.deployed, f.replans, v.decided == f.held["v"].rt.PTC)
	}
	runOut(t, d, f)
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
	failFast, _ := newFakeDriver(t, Options{Mode: ModeWall, DefragMaxSec: -1}, spec)
	arrive(t, failFast, "v", 0)
	if e, _ := failFast.s.pop(); e.kind != evComplete || failFast.s.awaits(e) {
		t.Fatalf("a run in which no commit can abort holds its completion (%+v)", e)
	}

	d, f := newFakeDriver(t, lateAbortOpts, spec)
	s := d.s
	arrive(t, d, "v", 0)
	deliver(t, d, f, "v", false) // deploy
	e, ok := s.pop()
	if !ok || e.kind != evComplete || !s.awaits(e) {
		t.Fatalf("v's completion (%+v) is not held while its scale-out may still abort", e)
	}
	s.pushAt(e)
	deliver(t, d, f, "v", true) // it does
	if e2, _ := s.pop(); e2.ver == e.ver || !s.awaits(e2) {
		t.Fatalf("after the requeue the old completion is still live, or the new one is not held for the restore")
	} else {
		s.pushAt(e2)
	}
	runOut(t, d, f)
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
	d, f := newFakeDriver(t, Options{Mode: ModeWall, Obs: tr},
		JobSpec{Name: "a", Model: tinyGPT(), DurationMin: 100, GPUs: 4, MinGPUs: 2, MaxGPUs: 4, Seed: 1},
		JobSpec{Name: "b", Model: tinyGPT(), DurationMin: 100, GPUs: 2, Seed: 2})
	s := d.s
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
		if err := d.step(e); err != nil {
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
	if err := f.finish("a", false); err != nil {
		t.Fatal(err)
	}
	check(event{kind: evOutcome, job: "a", out: d.mail.take()[0]})
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
