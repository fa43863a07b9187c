package coordinator

import (
	"context"
	"fmt"

	"tenplex/internal/chaos"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/job"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
)

// jobRuntime is one managed job's state-management stack inside the
// coordinator: the job.Runtime every allocation change flows through —
// the one a standalone tenplex.Job drives, so the control plane
// exercises the real reconfiguration machinery, not a model of it — and
// around it what is the coordinator's alone.
type jobRuntime struct {
	job.Runtime
	// seed names the job's initial state, job.InitState(Model, seed): the
	// deploy task generates it into the stores, the verify task generates
	// it again to compare, and nothing in between holds it.
	seed int64
}

// openStores gives the runtime its per-device Tensor Stores, one for
// every device of the topology: O(devices) work, so it runs at the head
// of the deploy task, not on the event loop. mk, when non-nil, supplies
// each store (the service points it at remote tenplex-store servers);
// nil keeps the in-memory default. inj, when non-nil, installs chaos
// fault injection on every device store; deep installs per-operation
// datapath spans OUTSIDE it, so injected faults appear in the trace as
// the failed store operations they manifest as. Both are hooks of one
// store.Wrap each, which keeps whatever the store offers beyond Access
// (store.Remote on a wire store) through the stack. The device stores
// also keep the checkpoints' pieces; the checkpoint storage beside them
// holds only manifests and the latest marker, in-process and unwrapped.
func (r *jobRuntime) openStores(mk func(job string, dev cluster.DeviceID) store.Access, inj *chaos.Injector, deep bool) {
	r.Storage = store.Local{FS: store.NewMemFS()}
	r.Stores = make(map[cluster.DeviceID]store.Access, len(r.Topo.Devices))
	for _, d := range r.Topo.Devices {
		acc := store.Access(store.Local{FS: store.NewMemFS()})
		if mk != nil {
			acc = mk(r.Name, d.ID)
		}
		if inj != nil {
			acc = inj.WrapAccess(r.Name, fmt.Sprintf("dev%d", d.ID), acc)
		}
		if deep {
			acc = store.Observe(acc, fmt.Sprintf("dev%d", d.ID), &r.Obs)
		}
		r.Stores[d.ID] = acc
	}
}

// rebase settles, at the head of a commit, the one case in which the
// decision plane's decided PTC can be wrong: an earlier change of this
// job aborted and rolled the runtime back after this one had been
// planned on top of it. The truth is here, so here is where it is
// settled: the same (cfg, alloc) target is planned again from what the
// runtime actually holds — what planning behind a drained chain used to
// get by construction. The price charged at decision time stands, and
// the event loop keeps reading it: only the plan's fields are replaced,
// and job.PlanTo reads no link state.
func (r *jobRuntime) rebase(ch *job.Change) error {
	if ch.From == r.PTC {
		return nil
	}
	to, err := parallel.BuildPTC(r.Model, ch.Config, ch.Alloc)
	if err != nil {
		return fmt.Errorf("re-plan: %w", err)
	}
	re, err := job.PlanTo(r.Topo, r.PTC, to, ch.Failed)
	if err != nil {
		return fmt.Errorf("re-plan: %w", err)
	}
	ch.From, ch.To, ch.Plan = re.From, re.To, re.Plan
	r.Metrics.Add("coord.replans", 1)
	return nil
}

// commitOutcome is what a job's chain reports back to the event loop
// about one transactional commit: how many transform attempts ran,
// whether the change was aborted (the runtime rolled back to its last
// bit-verified checkpoint), and the last attempt's error when it was.
// A non-nil err without aborted is fatal — legacy fail-fast mode, or a
// failed rollback.
type commitOutcome struct {
	attempts int
	aborted  bool
	err      error
	// ptc is the PTC the runtime ended on: the change's target, or after
	// an abort the placement it rolled back to. The event loop takes it
	// for the job's decided PTC when nothing newer has been decided.
	ptc     *core.PTC
	applyNs int64 // wall-clock cost of the commit on its chain, for trace attribution
}

// apply is one transform attempt of a change. With an injector the
// armed window covers exactly the transform: the checkpoint that follows
// — and every rollback and restore — runs disarmed, so the recovery path
// itself is reliable and degradation stays bounded.
func (r *jobRuntime) apply(ch *job.Change, inj *chaos.Injector, key uint64) error {
	if inj != nil {
		inj.BeginAttempt(r.Name, key)
	}
	_, err := r.Apply(context.TODO(), ch)
	if inj != nil {
		inj.EndAttempt(r.Name)
	}
	return err
}

// commitRetry is the transactional commit: up to MaxAttempts transform
// attempts, each armed as its own chaos attempt keyed off decision-plane
// state (keyBase), with a rollback to the last checkpoint between
// attempts, and then the checkpoint of the new placement. The placement
// only advances on a successful apply, so a failed attempt leaves the
// runtime exactly at its pre-change state; exhausting the budget yields
// an aborted outcome — graceful degradation the event loop turns into a
// requeue — rather than a chain error. Once an apply has succeeded the
// change is in and is never applied again: a failed checkpoint is
// retried on its own, up to MaxAttempts times, and one that never lands
// is a chain error, since the stores already hold the new placement.
func (r *jobRuntime) commitRetry(ch *job.Change, inj *chaos.Injector, pol RecoveryPolicy, keyBase uint64) commitOutcome {
	if err := r.rebase(ch); err != nil {
		return commitOutcome{err: err}
	}
	attempts := max(pol.MaxAttempts, 1)
	failFast := inj == nil && pol.MaxAttempts <= 1 // legacy: no chaos, no retry budget
	for i := 1; ; i++ {
		err := r.apply(ch, inj, keyBase+uint64(i))
		if err == nil {
			return r.checkpoint(i, attempts)
		}
		if failFast {
			return commitOutcome{attempts: 1, err: err}
		}
		if rbErr := r.Rollback(); rbErr != nil {
			return commitOutcome{attempts: i, err: fmt.Errorf("rollback failed: %v (after %v)", rbErr, err)}
		}
		if i == attempts {
			return commitOutcome{attempts: attempts, aborted: true, err: err}
		}
	}
}

// checkpoint files the placement a change's applied-th attempt left, up
// to tries times, and never by applying the change again.
func (r *jobRuntime) checkpoint(applied, tries int) commitOutcome {
	var err error
	for range tries {
		if err = r.Checkpoint(); err == nil {
			return commitOutcome{attempts: applied}
		}
	}
	return commitOutcome{attempts: applied, err: fmt.Errorf("checkpoint after the change: %w", err)}
}

// audit asserts that the runtime caught up with the decision plane
// exactly — the devices it decided, not just as many — and that its PTC
// is valid. It may only run while nothing else is running on the job's
// chain: after a join, or as part of a task of that chain.
func (r *jobRuntime) audit(decided cluster.Allocation) error {
	if len(r.Alloc) != len(decided) {
		return fmt.Errorf("runtime alloc has %d devices, decided %d", len(r.Alloc), len(decided))
	}
	for _, d := range r.Alloc {
		if !decided.Contains(d) {
			return fmt.Errorf("runtime holds device %d outside its decided allocation", d)
		}
	}
	return r.PTC.Validate()
}
