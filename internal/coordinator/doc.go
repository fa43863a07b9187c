package coordinator

// The decision plane never waits for the data plane — design note.
//
// In the paper the scheduler only decides an allocation change; the
// per-worker State Transformers carry it out (§5). Here the decision
// plane is the event loop (Run's, or the Service's one goroutine) and the
// data plane is the per-job task chains of exec.go. The rule between
// them, in ModeWall — the mode the tenplex-coordd service runs in:
//
//   - The loop never waits on a chain. Nothing it decides — an admission,
//     a scale-out or scale-in, a preemption, a defrag redeploy, a
//     fail-stop recovery, a cancel, a status read — blocks while a job's
//     deploy or reconfiguration moves bytes. A 201 from POST /v1/jobs
//     means admitted and leased; JobStatus.Deployed says when the state
//     has landed. (drainJob has one caller left: ModeSim's defrag. With
//     Workers: 1 there is no pool and so no chain to wait on: every task
//     runs inline at its decision point, the serialized runtime.)
//
//   - What it used to wait for was one fact, the PTC the job's runtime
//     would hold once the chain had caught up. The loop now keeps that
//     fact itself: simJob.decided, the decided PTC — built (metadata
//     only) at first admission, where the deploy task places the job
//     under that very value; advanced to the target of every change the
//     loop decides; set to the restore target at a re-admission; dropped
//     when the job turns terminal. planChange and planRestore are pure
//     functions of decision-plane state (model, topology, source PTC,
//     target config and allocation, failed devices), so a change is
//     planned, validated and priced on the loop against the decided PTC
//     and only the transform goes to the chain.
//
//   - The decided PTC can be wrong in exactly one case: an earlier change
//     of the same job aborted and rolled its runtime back (chaos, or a
//     retry budget: Run in ModeWall; the Service is fail-fast) after a
//     later change had been planned on top of it. That is settled where
//     the truth is. A change records the PTC it was planned from; its
//     commit, at the head of its turn on the chain, compares that with
//     what the runtime holds and, if they differ, plans the same
//     (cfg, alloc) target again from there (jobRuntime.rebase — what
//     planning behind a drained chain got by construction). The price
//     charged at decision time stands. Every commit reports the PTC the
//     runtime ended on, and flush / resolveInflight take it for the
//     decided PTC unless something newer has been decided (converge).
//
//   - A chain's error reaches the loop at the next flush, which asks the
//     pool whether any task has failed; it does not wait to find out.
//
// ModeSim is untouched: plans run on the chains against the runtime's own
// PTC and flush joins them, which is what keeps sim traces a function of
// the scenario alone and lets planning fan out. Planning as a pure
// function of decision-plane state is also the first separable piece of
// the pure decision core ROADMAP asks for.

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
//     enumeration is retained (candidateSetsScratch) and a seeded
//     property suite holds the two byte-identical over interleaved
//     lease/reclaim/fail-stop/quarantine sequences.
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
