package coordinator

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
