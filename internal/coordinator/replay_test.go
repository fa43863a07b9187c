package coordinator

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/obs"
)

// Replay is the purity proof of the decision core: a run's inputs,
// recorded in the order the core consumed them — the events it stepped,
// and of each outcome its command, attempts and abort — are fed to a
// fresh core over a fakeExec that answers each command with the recorded
// fate and nothing else. If the core reads no clock, tests no mode and
// waits for nothing it was not given, the replay decides the same run:
// the same Result, and the same trace of what the core records.

// input is one recorded input: an event, or (kind evOutcome) what an
// outcome said.
type input struct {
	e        event // out is cleared
	cmd      cmdKind
	attempts int
	aborted  bool
}

func inputOf(e event) input {
	in := input{e: e}
	if o := e.out; o != nil {
		in.cmd, in.attempts, in.aborted = o.kind, o.attempts, o.aborted
	}
	in.e.out = nil
	return in
}

func (in input) String() string {
	if in.e.kind == evOutcome {
		return fmt.Sprintf("outcome of %s's command %d: %d attempts, aborted %v", in.e.job, in.cmd, in.attempts, in.aborted)
	}
	return fmt.Sprintf("%s %q dev %d at %v (ver %d)", evNames[in.e.kind], in.e.job, in.e.dev, in.e.time, in.e.ver)
}

// CheckReplay records a run of the scenario under opts (with a
// deterministic tracer of its own), replays it, and fails t unless the
// replay renders the same Result, the same recovery accounting and the
// same decision-core trace. It returns the number of inputs replayed.
func CheckReplay(t *testing.T, topo *cluster.Topology, specs []JobSpec, failures []FailureSpec, opts Options) int {
	t.Helper()
	var rec []input
	opts.Obs = obs.New(obs.Options{Det: true, Level: obs.LevelPhases})
	d, err := newDriver(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.journal = func(e event) { rec = append(rec, inputOf(e)) }
	want, err := d.run(specs, failures)
	if err != nil {
		t.Fatalf("recorded run: %v", err)
	}
	wantTrace := coreTrace(t, opts.Obs)

	opts.Obs = obs.New(obs.Options{Det: true, Level: obs.LevelPhases})
	d, err = newDriver(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := newFake(d)
	d.s.exec = f
	r := &replayer{t: t, f: f, rec: rec}
	var got Result
	if opts.Mode == ModeSim {
		// The sim driver itself, over a fake whose join answers from the
		// record; the journal holds every input against it.
		f.script = r.outcome
		d.journal = r.check
		got, err = d.run(specs, failures)
	} else {
		got, err = r.wall(d, specs, failures)
	}
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if r.seen != len(rec) {
		t.Fatalf("replay consumed %d of %d recorded inputs", r.seen, len(rec))
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("replay diverged from the run\n--- run ---\n%s--- replay ---\n%s", fingerprint(want), fingerprint(got))
	}
	if gotTrace := coreTrace(t, opts.Obs); gotTrace != wantTrace {
		t.Fatalf("replay's decision-core trace differs from the run's")
	}
	return len(rec)
}

func fingerprint(r Result) string {
	return r.Render() + fmt.Sprintf("retries=%d requeues=%d quarantined=%d retry-bytes=%d recovery-sec=%v\n",
		r.Retries, r.Requeues, r.QuarantinedDevices, r.RetryBytes, r.RecoverySec)
}

// coreTrace is the part of a Det trace the decision core records: the
// chains' deploy and verify spans, datapath detail and the data plane's
// metrics are the executor's, which a replay does not run.
func coreTrace(t *testing.T, tr *obs.Tracer) string {
	t.Helper()
	exp := tr.Export()
	spans := exp.Spans[:0]
	for _, sp := range exp.Spans {
		if sp.Cat != obs.CatDatapath && sp.Name != obs.SpanDeploy && sp.Name != obs.SpanVerify {
			spans = append(spans, sp)
		}
	}
	rows := exp.Metrics[:0]
	for _, m := range exp.Metrics {
		if strings.HasPrefix(m.Name, "coord.") || strings.HasPrefix(m.Name, "job.") {
			rows = append(rows, m)
		}
	}
	exp.Spans, exp.Metrics = spans, rows
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// replayer walks a record. seen is how far the replay's core has
// consumed it; out is how far the fake's script has answered commands
// from it, which under the sim driver runs ahead of seen by the outcomes
// of one join.
type replayer struct {
	t         *testing.T
	f         *fakeExec
	rec       []input
	seen, out int
}

// take returns the next recorded input, which must be of the kind the
// replay is about to consume.
func (r *replayer) take(outcome bool) input {
	r.t.Helper()
	if r.seen == len(r.rec) {
		r.t.Fatalf("replay wants more than the %d recorded inputs", len(r.rec))
	}
	in := r.rec[r.seen]
	if (in.e.kind == evOutcome) != outcome {
		r.t.Fatalf("input %d: the run consumed %v, the replay something else", r.seen, in)
	}
	r.seen++
	return in
}

// outcome is the fake's script: the job and fate of the next recorded
// outcome.
func (r *replayer) outcome() (string, int, bool) {
	for r.out < len(r.rec) && r.rec[r.out].e.kind != evOutcome {
		r.out++
	}
	if r.out == len(r.rec) {
		r.t.Fatalf("the replay runs more commands than the run reported on")
	}
	in := r.rec[r.out]
	r.out++
	return in.e.job, in.attempts, in.aborted
}

// check holds each input the sim driver hands the core against the
// record.
func (r *replayer) check(e event) {
	r.t.Helper()
	got := inputOf(e)
	if in := r.take(got.e.kind == evOutcome); in != got {
		r.t.Fatalf("input %d: the replay consumed %v, the run %v", r.seen-1, got, in)
	}
}

// wall replays a wall-driver run without a clock: each recorded event is
// the head of the replay's heap, each outcome is run on the fake with
// its recorded fate and stepped.
func (r *replayer) wall(d *driver, specs []JobSpec, failures []FailureSpec) (Result, error) {
	s := d.s
	if err := s.schedule(specs, failures); err != nil {
		return Result{}, err
	}
	for r.seen < len(r.rec) {
		if r.rec[r.seen].e.kind == evOutcome {
			in := r.take(true)
			if r.f.releases(in.e.job); len(r.f.chains[in.e.job]) == 0 || r.f.chains[in.e.job][0].kind != in.cmd {
				r.t.Fatalf("input %d: the run took %v, the replay's chain of %s does not hold that command next", r.seen-1, in, in.e.job)
			}
			if err := r.f.finishAs(in.e.job, in.attempts, in.aborted); err != nil {
				return Result{}, err
			}
			if err := d.receive(); err != nil {
				return Result{}, err
			}
			continue
		}
		in := r.take(false)
		e, ok := s.pop()
		if !ok || inputOf(e) != in {
			r.t.Fatalf("input %d: the replay's heap holds %v next, the run stepped %v", r.seen-1, inputOf(e), in)
		}
		if err := d.step(e); err != nil {
			return Result{}, err
		}
	}
	for job := range r.f.chains {
		r.f.releases(job)
	}
	if err := d.settle(); err != nil {
		return Result{}, err
	}
	s.rejectQueued()
	return d.result(), nil
}
