package transform

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/store"
)

// The paper runs one State Transformer instance per resource (§5.1);
// each instance executes the subset of the reconfiguration plan whose
// destinations it owns, fetching remote ranges from peer Tensor Stores.
// ApplyDistributed reproduces that deployment shape: one goroutine per
// worker, each driving its own Transformer over only its devices, with
// a global barrier before the commit.

// planFor returns the sub-plan whose assignments target the given
// devices. The sub-plan shares From/To so validation still sees the
// full PTCs.
func planFor(plan *core.Plan, devices map[cluster.DeviceID]bool) *core.Plan {
	sub := &core.Plan{From: plan.From, To: plan.To}
	for _, a := range plan.Assignments {
		if devices[a.Device] {
			sub.Assignments = append(sub.Assignments, a)
		}
	}
	return sub
}

// ApplyDistributed executes the plan with one State Transformer per
// worker of the topology, in parallel, then commits once every worker
// has staged its partitions. It is semantically identical to a single
// Transformer.Apply; the split exists to mirror (and test) the
// distributed execution model.
func ApplyDistributed(job string, plan *core.Plan, topo *cluster.Topology,
	stores map[cluster.DeviceID]store.Access, storage StorageReader) (Stats, error) {
	return ApplyDistributedPipeline(job, plan, topo, stores, storage, Streamed)
}

// ApplyDistributedPipeline is ApplyDistributed with an explicit data
// path, letting benchmarks compare the streamed pipeline against the
// materialized reference under the distributed execution shape.
func ApplyDistributedPipeline(job string, plan *core.Plan, topo *cluster.Topology,
	stores map[cluster.DeviceID]store.Access, storage StorageReader, pipeline Pipeline) (Stats, error) {
	if err := plan.Validate(); err != nil {
		return Stats{}, fmt.Errorf("transform: invalid plan: %w", err)
	}

	// Partition destination devices by worker.
	byWorker := map[int]map[cluster.DeviceID]bool{}
	for _, d := range plan.To.Devices {
		w := topo.WorkerOf(d)
		if byWorker[w] == nil {
			byWorker[w] = map[cluster.DeviceID]bool{}
		}
		byWorker[w][d] = true
	}

	var (
		mu    sync.Mutex
		total Stats
		errs  []error
		wg    sync.WaitGroup
	)
	for w, devs := range byWorker {
		wg.Add(1)
		go func(w int, devs map[cluster.DeviceID]bool) {
			defer wg.Done()
			tr := &Transformer{Job: job, Stores: stores, Storage: storage, Pipeline: pipeline}
			st, err := tr.applyNoCommitCtx(context.Background(), planFor(plan, devs))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("worker %d: %w", w, err))
				return
			}
			total.Assignments += st.Assignments
			total.Noops += st.Noops
			total.merge(st)
		}(w, devs)
	}
	wg.Wait()
	if len(errs) > 0 {
		// Remove partial staging everywhere before reporting failure.
		tr := &Transformer{Job: job, Stores: stores}
		tr.cleanupStaging(context.Background(), plan)
		return total, fmt.Errorf("transform: distributed apply: %w", errors.Join(errs...))
	}

	// Global barrier reached: every worker staged its partitions.
	tr := &Transformer{Job: job, Stores: stores}
	if err := tr.commit(context.Background(), plan); err != nil {
		return total, err
	}
	return total, nil
}

// applyNoCommitCtx stages every assignment of the plan without swapping
// it live; used by the per-worker execution path.
func (tr *Transformer) applyNoCommitCtx(ctx context.Context, plan *core.Plan) (Stats, error) {
	if err := tr.checkOneRegionPerTensor(plan); err != nil {
		return Stats{}, err
	}
	for _, a := range plan.Assignments {
		if _, ok := tr.Stores[a.Device]; !ok {
			return Stats{}, fmt.Errorf("transform: no store for destination device %d", a.Device)
		}
	}
	return tr.stage(ctx, plan)
}
