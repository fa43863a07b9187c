package coordinator

// One core, two drivers — design note.
//
// In the paper the scheduler only decides an allocation change; the
// per-worker State Transformers carry it out (§5). Here the decision core
// (loop.go, handlers.go, engine.go, account.go) holds the state and its
// transitions; the data plane is everything behind the executor
// (executor.go: per-job task chains over job.Runtime, the runtime.go
// wrapper adding store wrapping, the chaos-armed commit, rebase and
// audit); and a driver (driver.go) feeds the one to the other.
//
//   - What the core may not do. It reads no clock, tests no mode, and
//     waits for nothing: it imports neither time nor a store, starts no
//     goroutine and never joins a chain (TestDecisionFilesImportNoDataPlane
//     holds this). Every input — a scripted event, a Service request, an
//     outcome — goes through sim.step; what a step decides is booked by
//     sim.book with whatever outcome has been attached. So a run is a
//     function of its inputs (TestReplayReproducesRuns replays recorded
//     runs into a fresh core over a scripted executor).
//
//   - Where a plan runs, and from what. Every deploy, change and restore
//     is planned and priced in the step, from simJob.decided: the PTC the
//     job will hold once the work queued on its chain has committed. It is
//     wrong in one case: an earlier change aborted and rolled the runtime
//     back after a later one was planned on top of it. That commit notices
//     on its chain and plans the same (cfg, alloc) again from what the
//     runtime holds (jobRuntime.rebase); the price charged stands, and its
//     outcome brings decided back (converge). Placement prices a candidate
//     with the change it would commit there (sim.pricer) and commits the
//     one it picks as scored: one plan, one price, placed and charged.
//
//   - Where each driver waits. The sim driver (ModeSim) joins every chain
//     after a step, attaches what they reported and books, until an
//     abort's requeue leaves nothing more to book, then audits the
//     runtimes; traces are a function of the scenario. The wall driver
//     (ModeWall, and every Service) selects on its timer, the mailbox
//     chains post outcomes to, and a Service's requests, and steps each
//     as it comes; it holds a completion that a late abort could still
//     stale until the job's outcomes are in (awaits). Both join at the end
//     of a run (settle).
//
//   - A completion's defrag is the step's second phase, run once the
//     first has been booked: under the sim driver an abort found there
//     has requeued its job, which defrag then does not compact. Measured
//     against defrag deciding inside the completion over only what was
//     attached: BENCH_hostile moved in no cell, against 4 exact cells of
//     0.02/retry-on (requeues 22 -> 23, retries 73 -> 75, moved_bytes
//     4,033,792 -> 4,195,712, retry_bytes 9,977,280 -> 10,256,256). Sim
//     traces number their spans differently: the first phase's booking
//     now allocates its span IDs before defrag's change does.
//
// The explorer (explore_test.go) drives the core through every
// interleaving of a small world's inputs to a fixed depth and checks each
// job's workflow-net soundness: option to complete, proper completion, no
// dead transitions, and the ledger and lease invariants at every state.

// Incremental decision plane — design note.
//
// Per-event cost must not grow with the cluster when an event touches one
// job and a handful of devices. As in dynamic shortest-path updates, the
// derived state is maintained and only the affected subset re-derived:
//
//   - Ledger: per-worker free lists, per-free-count worker bitmaps and
//     per-rack totals. A mutation (lease, release, fail, recover, drain)
//     marks only the touched workers dirty, and the next query rebuilds
//     those (sync / rebuildWorker).
//
//   - One walk answers every placement question: walkPack visits workers
//     bucket by bucket, most or fewest free first, preferred workers
//     leading. Pick and the compact and best-fit candidates take devices
//     along it; the rack-local and spread candidates filter or round-robin
//     its workers; defragmentation's Repack walks it with the job's own
//     devices counted as free, and gets the pack and its worker count in
//     one call per running job. The from-scratch enumeration and the
//     packCompact reference are test code (ledger_scratch_test.go), held
//     byte-identical by seeded property suites.
//
//   - perfmodel.Cache: entries, placement scores with the change their
//     price planned, are stamped with the sum of the per-worker health
//     epochs of the workers they touch (candidate and source), so an event
//     invalidates only the entries whose devices share its worker.
//     Finished jobs' entries and dead models' are shed as they go
//     (DropJob, DropModel); the size cap is a backstop no run reaches.
//
// The dcscale experiments (tenplex-bench -record dcscale) measure the
// result: per-decision latency at 512/1024/2048 devices with 50–200 jobs,
// gated to stay flat (p50 at 2048 devices within 3x of 512).
