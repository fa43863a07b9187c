package coordinator

import (
	"context"
	"fmt"
	"time"

	"tenplex/internal/chaos"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/obs"
	"tenplex/internal/parallel"
)

// executor is the data plane as the decision plane sees it: five
// commands in, one outcome type back, a join and one query. The
// decision plane holds no runtime, store or checkpoint; what it knows of
// a job's state on the stores is what outcomes have told it.
type executor interface {
	// do queues c behind the job's earlier commands and returns at once;
	// the command's outcome is posted to the loop's mailbox when it has
	// run (release has none). With one worker there is no queue: c runs
	// inline and its error is returned as well as posted.
	do(c command) error
	// join waits until every job's chain is idle and returns the first
	// error any command has failed with. Only drivers join (doc.go).
	join() error
	// audit checks that job's runtime sits exactly on the decided
	// allocation under a valid PTC; a job that holds no state passes. It
	// may only be asked while the job's chain is idle.
	audit(job string, decided cluster.Allocation) error
}

type cmdKind int

const (
	cmdDeploy  cmdKind = iota // first placement: generate into the stores, seed checkpoint
	cmdRestore                // re-admission: redeploy from the latest checkpoint
	cmdCommit                 // one decided change, transactionally
	cmdVerify                 // completion: bit-verify, audit, delete and let go of the state
	cmdRelease                // any other terminal state: delete and let go of the state
)

// command is one unit of work for a job's chain. span and tMin are the
// trace span it is recorded under and the simulated time it was decided
// at; the loop allocates both, so span IDs are a function of decisions.
type command struct {
	kind cmdKind
	job  string
	span uint64
	tMin float64

	// p is the change a commit or restore carries out: its plan, its trace
	// root (span, tMin) and the sequence number chaos keys derive from.
	p *pendingChange
	// A deploy places (model, seed) under ptc, the job's first decided
	// PTC, built from (cfg, alloc). A verify audits against alloc and
	// reports resizes in its span.
	model   *model.Model
	seed    int64
	ptc     *core.PTC
	cfg     parallel.Config
	alloc   cluster.Allocation
	resizes int
}

// outcome is what the data plane reports of one command. Of a deploy or
// a verify only err is set; a commit or a restore names its change and
// says how it went (commitOutcome).
type outcome struct {
	kind cmdKind
	job  string
	p    *pendingChange
	commitOutcome
}

// dataPlane is the executor over real state: one jobRuntime per placed
// job, its commands run as tasks on the job's chain of a bounded pool.
type dataPlane struct {
	topo *cluster.Topology
	opts Options
	pool *pool // nil when Workers == 1: commands run inline
	inj  *chaos.Injector
	tr   *obs.Tracer
	reg  *obs.Registry
	post func(*outcome)
	// jobs is touched by the loop goroutine only; a task holds its own
	// runtime pointer.
	jobs map[string]*jobRuntime
}

func newDataPlane(topo *cluster.Topology, opts Options, reg *obs.Registry, post func(*outcome)) *dataPlane {
	x := &dataPlane{topo: topo, opts: opts, tr: opts.Obs, reg: reg, post: post,
		jobs: map[string]*jobRuntime{}}
	if opts.Workers > 1 {
		x.pool = newPool(opts.Workers)
	}
	if opts.Chaos != nil {
		x.inj = chaos.NewInjector(*opts.Chaos)
	}
	return x
}

func (x *dataPlane) do(c command) error {
	rt := x.jobs[c.job]
	last := c.kind == cmdVerify || c.kind == cmdRelease
	switch {
	case c.kind == cmdDeploy:
		// A runtime exists from the first placement on: queued and rejected
		// jobs cost no stores.
		rt = &jobRuntime{Runtime: job.Runtime{Name: c.job, Model: c.model, Topo: x.topo, Metrics: x.reg}}
		x.jobs[c.job] = rt
	case last:
		delete(x.jobs, c.job) // the task below is the last to hold it
	}
	if rt == nil {
		return nil // released before it was ever placed
	}
	if c.p != nil {
		c.span, c.tMin = c.p.spanID, c.p.tMin
	}
	task := func() error {
		if x.tr.Enabled() {
			rt.Obs.Set(obs.TaskCtx{T: x.tr, Parent: c.span, Job: c.job, TMin: c.tMin})
		}
		out := &outcome{kind: c.kind, job: c.job, p: c.p}
		start := time.Now()
		switch c.kind {
		case cmdDeploy:
			rt.openStores(x.opts.Stores, x.inj, x.tr.Deep())
			rt.seed = c.seed
			start = time.Now()
			out.err = rt.DeploySeed(context.TODO(), c.ptc, c.cfg, c.alloc, c.seed)
			x.traceTask(c, obs.SpanDeploy, start, out.err)
		case cmdRestore:
			// Disarmed, so re-admitting a degraded job always lands; the new
			// layout is checkpointed so the next failure recovers against it.
			if out.err = rt.Restore(c.p.ch); out.err == nil {
				out.err = rt.Checkpoint()
			}
			out.attempts = 1
		case cmdCommit:
			// The chaos attempt key derives from the change's reserved
			// sequence number, decision-plane state that is identical at any
			// worker count. An aborted outcome is not a chain error: graceful
			// degradation happens on the event loop.
			out.commitOutcome = rt.commitRetry(c.p.ch, x.inj, x.opts.Recovery, uint64(c.p.seq)<<8)
		case cmdVerify:
			// The end-to-end correctness oracle, then the terminal audit of
			// a completed job — here because the release takes away what
			// settle's audit would look at. Nothing calls a verify off yet:
			// the context is here for the day jobs carry one.
			defer rt.Release() // once the outcome is posted: a turnaround does not wait for the deletes
			if out.err = rt.Verify(context.TODO(), rt.seed); out.err == nil {
				out.err = rt.audit(c.alloc)
			}
			x.traceTask(c, obs.SpanVerify, start, out.err)
		case cmdRelease:
			rt.Release()
			return nil
		}
		if c.p != nil {
			out.ptc, out.applyNs = rt.PTC, time.Since(start).Nanoseconds()
		}
		if out.err != nil {
			out.err = fmt.Errorf("coordinator: job %s: %w", c.job, out.err)
		}
		x.post(out)
		if out.aborted {
			return nil
		}
		return out.err
	}
	if x.pool == nil {
		return task()
	}
	x.pool.submit(c.job, last, task)
	return nil
}

// traceTask records the span of a deploy or verify task, from its chain.
func (x *dataPlane) traceTask(c command, name string, start time.Time, err error) {
	if !x.tr.Enabled() {
		return
	}
	attrs := map[string]any{"resizes": c.resizes}
	if c.kind == cmdDeploy {
		attrs = map[string]any{"gpus": len(c.alloc), "config": c.cfg.String()}
	}
	if err != nil {
		attrs["err"] = err.Error()
	}
	x.tr.Record(obs.Span{ID: c.span, Name: name, Cat: obs.CatExec, Job: c.job, TMin: c.tMin,
		WallNs: time.Since(start).Nanoseconds(), Attrs: attrs})
}

func (x *dataPlane) join() error {
	if x.pool == nil {
		return nil
	}
	return x.pool.drainAll()
}

func (x *dataPlane) audit(job string, decided cluster.Allocation) error {
	rt := x.jobs[job]
	if rt == nil || rt.PTC == nil {
		return nil // never deployed, or released
	}
	if err := rt.audit(decided); err != nil {
		return fmt.Errorf("coordinator: job %s: %w", job, err)
	}
	return nil
}
