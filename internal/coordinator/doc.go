package coordinator

// One planning path, one step, one boundary — design note.
//
// In the paper the scheduler only decides an allocation change; the
// per-worker State Transformers carry it out (§5). Here the decision
// plane is the event loop (loop.go, handlers.go, engine.go, account.go)
// and the data plane is everything behind the executor (executor.go:
// per-job task chains). The seam runs decision plane -> executor ->
// job.Runtime: what a reconfiguration is lives in internal/job, which
// tenplex.Job and the experiments drive too; runtime.go adds only the
// coordinator's own (store wrapping, the chaos-armed transactional
// commit, rebase, audit). Three rules hold between them, in both modes.
//
//   - Where a plan runs, and from what. Every first deploy, change and
//     restore is planned, validated and priced on the loop, by pure
//     functions of decision-plane state (job.Plan, job.PlanRestore), from
//     simJob.decided: the PTC the job will hold once the work queued on
//     its chain has committed — built at first admission, advanced to the
//     target of every decided change, set to the restore target at a
//     re-admission, dropped when the job turns terminal. No plan waits
//     for bytes. decided can be wrong in one case: an earlier change of
//     the job aborted and rolled its runtime back after a later one was
//     planned on top of it. That commit notices at the head of its turn
//     on the chain and plans the same (cfg, alloc) again from what the
//     runtime holds (jobRuntime.rebase); the price charged at decision
//     time stands, and its outcome brings decided back (converge).
//
//   - What an event is. Every input to the decision plane is an event
//     and goes through sim.step: the scenario's script off the heap, a
//     request to the Service (a submit is an arrival, an injected failure
//     a failure, scale and cancel kinds of their own), and every outcome
//     of a command, which its chain posts to the loop's mailbox without
//     blocking. ModeWall selects on the mailbox beside its pacing timer
//     (Run) or its timer and commands (Service), so an abort requeues its
//     job when it lands, heap event or none; a Run in which a commit can
//     abort also holds a job's completion until that job's outcomes are
//     in (awaits). ModeSim takes outcomes behind its join at flush, in
//     decision order, which keeps sim traces a function of the scenario.
//
//   - What crosses the boundary. Five commands go in — deploy, restore,
//     commit, verify, release — one outcome type comes back, and audit
//     may be asked of an idle chain. The decision plane holds no runtime,
//     store or checkpoint. The loop waits for the data plane in three
//     places only: settle, at the end of a run; ModeSim's flush; and
//     ModeSim's defrag, which joins the one job's chain before it reads
//     abortPending. The last is the join planning on the loop did not
//     make redundant: without it defrag compacts jobs an abort is about
//     to requeue, and BENCH_hostile's 0.02/retry-on row moves (requeues
//     22 -> 23, retries 73 -> 75, moved_bytes 4,033,792 -> 4,195,712).
//
// Open, for the explorer ROADMAP item 3(c) asks for (fake_test.go's
// executor, which orders completions itself, is its starting point): the
// protocol's soundness rests on hand-written cases, not on a search.

// Incremental decision plane — design note.
//
// The original control plane recomputed everything per event: Free()
// rescanned every device, CandidateSets sorted every worker, and the
// perfmodel cache keyed entries on the whole topology's generation, so
// one device failure invalidated the scores of all ~200 jobs. Per-event
// cost therefore grew linearly with cluster size even when the event
// touched one job and a handful of devices. At 2048 devices that
// linearity is the bottleneck the ROADMAP's datacenter-scale item
// names.
//
// The fix follows the update-vs-recompute structure of dynamic
// shortest-path update algorithms: maintain the derived state, and on a
// change re-derive only the affected subset.
//
//   - Ledger: per-worker free lists, per-free-count worker bitmaps and
//     per-rack totals are the derived state. Every mutation (lease,
//     release, fail, recover, drain) marks only the touched workers
//     dirty; the next query re-derives exactly those workers (sync /
//     rebuildWorker). Candidate enumeration then walks count buckets —
//     a few machine words — instead of sorting all workers, so its cost
//     scales with the candidate size, not the cluster. The from-scratch
//     enumeration it replaced is test code (ledger_scratch_test.go): the
//     reference a seeded property suite holds it byte-identical to over
//     interleaved lease/reclaim/fail-stop/quarantine sequences.
//
//   - perfmodel.Cache: entries are stamped with the sum of the
//     per-worker health epochs (cluster.Topology.WorkerEpoch) of the
//     workers their inputs touch, instead of being keyed on the global
//     generation. An event bumps only its own worker's epoch, so it
//     invalidates only the entries whose allocations intersect that
//     worker; everything else keeps hitting. A size cap with
//     stale-first eviction plus per-job tags (DropJob on completion)
//     bounds a long run's footprint.
//
//   - Defragmentation: MinLeaseSpread answers "could this job sit on
//     fewer workers?" straight from the count buckets, so the per-event
//     defrag sweep prunes the (vast majority of) jobs that cannot be
//     compacted without materializing candidate allocations.
//
// The dcscale experiments (internal/experiments, tenplex-bench
// -record dcscale) measure the result: per-decision latency percentiles at
// 512/1024/2048 devices with 50–200 jobs, gated in CI to stay flat
// (p50 at 2048 devices within 3x of 512) rather than linear.
