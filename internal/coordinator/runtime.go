package coordinator

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tenplex/internal/chaos"
	"tenplex/internal/checkpoint"
	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/netsim"
	"tenplex/internal/obs"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// jobRuntime is one managed job's Tenplex state-management stack inside
// the coordinator: per-device Tensor Stores, a blob store standing in
// for remote checkpoint storage, and the current PTC. Every allocation
// change the coordinator decides flows through the same path a
// standalone tenplex.Job uses — parallel.BuildPTC, core.AlignDevices +
// core.GeneratePlan, and transform.Transformer over the stores — so the
// control plane exercises the real reconfiguration machinery, not a
// model of it.
type jobRuntime struct {
	name    string
	model   *model.Model
	topo    *cluster.Topology
	stores  map[cluster.DeviceID]store.Access
	storage store.Local

	// ptc is the job's current placement. The coordinator prices several
	// candidate changes against it before committing one; they all read
	// the same compiled index, which the PTC builds on first use and
	// keeps (core/index.go). A commit installs a new PTC value, and the
	// old one's index goes with it.
	ptc   *core.PTC
	cfg   parallel.Config
	alloc cluster.Allocation
	step  int
	// init holds the job's deterministic initial tensors: written by the
	// deploy task, read by the verify task, dropped by release — all on
	// the job's chain.
	init map[core.TensorID]*tensor.Tensor

	// Observability: the run's metrics registry (nil when off) and the
	// chain's current task scope — each task the decision plane fans
	// out installs its parent span here, and the wrapped stores parent
	// their per-op spans under it.
	metrics  *obs.Registry
	obsScope obs.ScopeVar
}

// openStores gives the runtime its per-device Tensor Stores, one for
// every device of the topology: O(devices) work, so it runs at the head
// of the deploy task, not on the event loop. mk, when non-nil, supplies
// each store (the service points it at remote tenplex-store servers);
// nil keeps the in-memory default. inj, when non-nil, installs chaos
// fault injection on every device store; deep installs per-operation
// datapath spans OUTSIDE it, so injected faults appear in the trace as
// the failed store operations they manifest as. The checkpoint blob
// store stays in-process and unwrapped either way — it is the durability
// anchor rollback and restore depend on.
func (r *jobRuntime) openStores(mk func(job string, dev cluster.DeviceID) store.Access, inj *chaos.Injector, deep bool) {
	r.storage = store.Local{FS: store.NewMemFS()}
	r.stores = make(map[cluster.DeviceID]store.Access, len(r.topo.Devices))
	for _, d := range r.topo.Devices {
		acc := store.Access(store.Local{FS: store.NewMemFS()})
		if mk != nil {
			acc = mk(r.name, d.ID)
		}
		if inj != nil {
			acc = inj.WrapAccess(r.name, fmt.Sprintf("dev%d", d.ID), acc)
		}
		if deep {
			acc = store.Observe(acc, fmt.Sprintf("dev%d", d.ID), &r.obsScope)
		}
		r.stores[d.ID] = acc
	}
}

// initStateOn builds the job's deterministic initial tensors from seed
// on at most workers goroutines. Tensor i is filled from its own seed,
// seed+i, so the state is the same bit for bit however the tensors are
// shared out; the fill is compute-bound (about 1.4 GB/s a core,
// FillRandDense keeps the per-tensor RNG setup off it) and sits on the
// deploy of every job.
func initStateOn(workers int, m *model.Model, seed int64) map[core.TensorID]*tensor.Tensor {
	params := m.StateParams()
	tensors := make([]*tensor.Tensor, len(params))
	var next atomic.Int64
	fill := func() {
		for i := int(next.Add(1)) - 1; i < len(params); i = int(next.Add(1)) - 1 {
			t := tensor.New(params[i].Param.DType, params[i].Param.Shape...)
			t.FillRandDense(seed+int64(i), 0.05)
			tensors[i] = t
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(params)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	fill()
	wg.Wait()
	init := make(map[core.TensorID]*tensor.Tensor, len(params))
	for i, lp := range params {
		init[core.TensorID(lp.Path())] = tensors[i]
	}
	return init
}

// deploy places the job's initial tensors on its first lease under ptc —
// the job's first decided PTC, built from (cfg, alloc) on the event loop
// — and persists a baseline checkpoint so a later fail-stop recovery
// always has a storage fallback for ranges whose replicas are all lost.
// The baseline is init itself, held by reference: the bytes have just
// gone out to the stores CRC-framed, and reading them back to write them
// down again would move the job's whole state a second time for nothing.
func (r *jobRuntime) deploy(ptc *core.PTC, cfg parallel.Config, alloc cluster.Allocation) error {
	if err := transform.LoadPTC(r.name, ptc, r.stores, r.init); err != nil {
		return fmt.Errorf("coordinator: deploy %s: %w", r.name, err)
	}
	r.ptc, r.cfg, r.alloc = ptc, cfg, append(cluster.Allocation(nil), alloc...)
	if err := checkpoint.SaveTensors(r.storage, r.name, r.step, ptc.Name, r.init); err != nil {
		return fmt.Errorf("coordinator: checkpoint %s: %w", r.name, err)
	}
	return nil
}

// change is a costed, validated, not-yet-applied allocation change: the
// coordinator prices it with netsim, decides, and only then commits.
type change struct {
	cfg   parallel.Config
	alloc cluster.Allocation
	// from is the PTC the change was planned from, before failed devices
	// were taken out of it: the decision plane's decided PTC. The commit
	// holds it against what the runtime has when its turn on the chain
	// comes (rebase). from, to, plan and storageOK belong to the chain from
	// the moment the commit is submitted; the event loop keeps reading the
	// price (stats, simSec).
	from   *core.PTC
	failed []cluster.DeviceID
	to     *core.PTC
	plan   *core.Plan
	stats  core.Stats
	simSec float64
	// storageOK marks a recovery plan that may read lost ranges back
	// from the latest checkpoint.
	storageOK bool
	// planNs and applyNs are wall-clock costs of planning and of all
	// transform/restore attempts, for trace attribution. applyNs is
	// written by the job's chain and read by the event loop only after
	// the outcome publication barrier (pendingChange.out), never while
	// the chain may still be writing.
	planNs  int64
	applyNs int64
}

// planChange computes and prices the reconfiguration of a job of model m
// from the placement from onto (cfg, alloc) without touching any store.
// It is a pure function of its arguments and runs on the event loop,
// against the job's decided PTC. When failed is non-empty the source is
// degraded to the surviving replicas and the plan may fall back to
// checkpoint reads (fail-stop recovery). The returned plan has been
// validated.
func planChange(m *model.Model, topo *cluster.Topology, from *core.PTC, cfg parallel.Config,
	alloc cluster.Allocation, failed []cluster.DeviceID) (*change, error) {
	planStart := time.Now()
	ch, err := planMoves(m, topo, from, cfg, alloc, failed)
	if err != nil {
		return nil, err
	}
	ch.stats = ch.plan.Stats(topo)
	ch.simSec = netsim.Simulate(topo, ch.plan.Flows(topo)).Seconds
	ch.planNs = time.Since(planStart).Nanoseconds()
	return ch, nil
}

// planMoves is planChange without the price: the target PTC and the
// validated plan that reaches it. Of the topology it reads only which
// device sits on which worker, which never changes, so a chain may call
// it while the event loop marks failures and reprices links.
func planMoves(m *model.Model, topo *cluster.Topology, from *core.PTC, cfg parallel.Config,
	alloc cluster.Allocation, failed []cluster.DeviceID) (*change, error) {
	src := from
	storageOK := false
	if len(failed) > 0 {
		src = from.WithoutDevices(failed...)
		storageOK = true
	}
	to, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		return nil, err
	}
	to = core.AlignDevices(src, to)
	plan, err := core.GeneratePlan(src, to, core.PlanOptions{Topo: topo, StorageFallback: storageOK})
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("invalid plan: %w", err)
	}
	return &change{
		cfg:       cfg,
		alloc:     append(cluster.Allocation(nil), alloc...),
		from:      from,
		failed:    failed,
		to:        to,
		plan:      plan,
		storageOK: storageOK,
	}, nil
}

// rebase settles, at the head of a commit, the one case in which the
// decision plane's decided PTC can be wrong: an earlier change of this
// job aborted and rolled the runtime back after this one had been
// planned on top of it. The truth is here, so here is where it is
// settled: the same (cfg, alloc) target is planned again from what the
// runtime actually holds — what planning behind a drained chain used to
// get by construction. The price charged at decision time stands.
func (r *jobRuntime) rebase(ch *change) error {
	if ch.from == r.ptc {
		return nil
	}
	re, err := planMoves(r.model, r.topo, r.ptc, ch.cfg, ch.alloc, ch.failed)
	if err != nil {
		return fmt.Errorf("coordinator: re-plan %s: %w", r.name, err)
	}
	ch.from, ch.to, ch.plan, ch.storageOK = re.from, re.to, re.plan, re.storageOK
	r.metrics.Add("coord.replans", 1)
	return nil
}

// commit executes a previously costed change through the State
// Transformer and re-checkpoints the new placement, so the next
// failure recovers against the current layout.
func (r *jobRuntime) commit(ch *change) error { return r.commitAttempt(ch, nil, 0) }

// commitAttempt is one transform attempt of a change. With an injector
// the armed window covers exactly the transform: the checkpoint save
// that follows — and every rollback/restore — runs disarmed, so the
// recovery path itself is reliable and degradation stays bounded.
func (r *jobRuntime) commitAttempt(ch *change, inj *chaos.Injector, key uint64) error {
	applyStart := time.Now()
	defer func() { ch.applyNs += time.Since(applyStart).Nanoseconds() }()
	tr := &transform.Transformer{Job: r.name, Stores: r.stores,
		Metrics: r.metrics, Obs: r.obsScope.Get()}
	if ch.storageOK {
		if step, err := checkpoint.Latest(r.storage, r.name); err == nil {
			if rd, err := checkpoint.Open(r.storage, r.name, step); err == nil {
				tr.Storage = rd
			}
		}
	}
	if inj != nil {
		inj.BeginAttempt(r.name, key)
	}
	_, err := tr.Apply(ch.plan)
	if inj != nil {
		inj.EndAttempt(r.name)
	}
	if err != nil {
		return fmt.Errorf("coordinator: transform %s: %w", r.name, err)
	}
	r.ptc, r.cfg, r.alloc = ch.to, ch.cfg, ch.alloc
	r.step++
	if err := checkpoint.Save(r.storage, r.name, r.step, r.ptc, r.stores); err != nil {
		return fmt.Errorf("coordinator: checkpoint %s: %w", r.name, err)
	}
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
	ptc *core.PTC
}

// commitRetry is the transactional commit: up to MaxAttempts transform
// attempts, each armed as its own chaos attempt keyed off decision-
// plane state (keyBase), with a rollback to the last checkpoint between
// attempts. r.ptc only advances on success, so a failed attempt leaves
// the runtime exactly at its pre-change state. Exhausting the budget
// yields an aborted outcome — graceful degradation the event loop
// turns into a requeue — rather than a chain error.
func (r *jobRuntime) commitRetry(ch *change, inj *chaos.Injector, pol RecoveryPolicy, keyBase uint64) commitOutcome {
	if err := r.rebase(ch); err != nil {
		return commitOutcome{err: err}
	}
	if inj == nil && pol.MaxAttempts <= 1 {
		// Legacy fail-fast: no chaos, no retry budget.
		return commitOutcome{attempts: 1, err: r.commit(ch)}
	}
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 1; i <= attempts; i++ {
		err = r.commitAttempt(ch, inj, keyBase+uint64(i))
		if err == nil {
			return commitOutcome{attempts: i}
		}
		if rbErr := r.rollback(); rbErr != nil {
			return commitOutcome{attempts: i,
				err: fmt.Errorf("coordinator: rollback of %s failed: %v (after %v)", r.name, rbErr, err)}
		}
	}
	return commitOutcome{attempts: attempts, aborted: true, err: err}
}

// rollback wipes the job's (possibly half-destroyed) store state and
// reloads the latest checkpoint under the runtime's current PTC — the
// commit path only advances r.ptc and saves on success, so the latest
// checkpoint always matches r.ptc. Runs disarmed.
func (r *jobRuntime) rollback() error {
	for _, acc := range r.stores {
		_ = acc.Delete(transform.ModelRoot(r.name))   // may not exist
		_ = acc.Delete(transform.StagingRoot(r.name)) // may not exist
	}
	step, err := checkpoint.Latest(r.storage, r.name)
	if err != nil {
		return err
	}
	rd, err := checkpoint.Open(r.storage, r.name, step)
	if err != nil {
		return err
	}
	return checkpoint.Restore(rd, r.name, r.ptc, r.stores)
}

// planRestore prices re-deploying a requeued job of model m from its
// latest checkpoint onto a fresh placement: every sub-tensor of the new
// PTC streams from remote checkpoint storage to its device, replicas
// included — exactly what commitRestore moves. Like planChange it is a
// pure function and runs on the event loop.
func planRestore(m *model.Model, topo *cluster.Topology, cfg parallel.Config, alloc cluster.Allocation) (*change, error) {
	to, err := parallel.BuildPTC(m, cfg, alloc)
	if err != nil {
		return nil, err
	}
	var flows []netsim.Flow
	var bytes int64
	for _, d := range to.Devices {
		for _, s := range to.Place[d] {
			meta, ok := to.Tensors[s.Tensor]
			if !ok {
				return nil, fmt.Errorf("no metadata for %q", s.Tensor)
			}
			n := tensor.ShapeNumBytes(meta.DType, s.Region.Shape())
			flows = append(flows, netsim.Flow{From: netsim.StorageEP(), To: netsim.DevEP(d), Bytes: n})
			bytes += n
		}
	}
	return &change{
		cfg:       cfg,
		alloc:     append(cluster.Allocation(nil), alloc...),
		to:        to,
		stats:     core.Stats{StorageBytes: bytes, MovedBytes: bytes},
		simSec:    netsim.Simulate(topo, flows).Seconds,
		storageOK: true,
	}, nil
}

// commitRestore redeploys the job from its latest checkpoint: wipe any
// stale store state, stream the checkpoint in under the new PTC, and
// re-checkpoint at the new layout so the next failure recovers against
// it. It runs disarmed, so re-admitting a degraded job always lands.
func (r *jobRuntime) commitRestore(ch *change) error {
	applyStart := time.Now()
	defer func() { ch.applyNs += time.Since(applyStart).Nanoseconds() }()
	for _, acc := range r.stores {
		_ = acc.Delete(transform.ModelRoot(r.name))
		_ = acc.Delete(transform.StagingRoot(r.name))
	}
	step, err := checkpoint.Latest(r.storage, r.name)
	if err != nil {
		return fmt.Errorf("coordinator: restore %s: %w", r.name, err)
	}
	rd, err := checkpoint.Open(r.storage, r.name, step)
	if err != nil {
		return fmt.Errorf("coordinator: restore %s: %w", r.name, err)
	}
	if err := checkpoint.Restore(rd, r.name, ch.to, r.stores); err != nil {
		return fmt.Errorf("coordinator: restore %s: %w", r.name, err)
	}
	r.ptc, r.cfg, r.alloc = ch.to, ch.cfg, ch.alloc
	r.step++
	if err := checkpoint.Save(r.storage, r.name, r.step, r.ptc, r.stores); err != nil {
		return fmt.Errorf("coordinator: checkpoint %s: %w", r.name, err)
	}
	return nil
}

// verifyState reassembles the job's full logical tensors and checks
// them against the initial state — the end-to-end correctness oracle
// run at job completion. Canceling ctx stops the read.
func (r *jobRuntime) verifyState(ctx context.Context) error {
	got, err := transform.ReadPTCContext(ctx, r.name, r.ptc, r.stores)
	if err != nil {
		return fmt.Errorf("coordinator: read state of %s: %w", r.name, err)
	}
	for id, want := range r.init {
		t, ok := got[id]
		if !ok {
			return fmt.Errorf("coordinator: %s lost tensor %s", r.name, id)
		}
		if !t.Equal(want) {
			return fmt.Errorf("coordinator: %s corrupted tensor %s", r.name, id)
		}
	}
	return nil
}

// audit asserts that the runtime caught up with the decision plane
// exactly — the devices it decided, not just as many — and that its PTC
// is valid. It may only run while nothing else is running on the job's
// chain: after a join, or as part of a task of that chain.
func (r *jobRuntime) audit(decided cluster.Allocation) error {
	if len(r.alloc) != len(decided) {
		return fmt.Errorf("coordinator: %s runtime alloc has %d devices, decided %d",
			r.name, len(r.alloc), len(decided))
	}
	for _, d := range r.alloc {
		if !decided.Contains(d) {
			return fmt.Errorf("coordinator: %s runtime holds device %d outside its decided allocation",
				r.name, d)
		}
	}
	if err := r.ptc.Validate(); err != nil {
		return fmt.Errorf("coordinator: %s: %w", r.name, err)
	}
	return nil
}

// release drops what only a live job needs — its golden tensors, its
// in-process checkpoints and stores (several times the job's state
// size), its PTC with the compiled index hanging off it, and its model —
// so a long-running service does not grow with every job it has ever
// finished. It runs on the job's chain, behind whatever work is still
// queued there.
func (r *jobRuntime) release() {
	r.init, r.model, r.ptc, r.stores = nil, nil, nil, nil
	r.storage = store.Local{FS: store.NewMemFS()}
}
