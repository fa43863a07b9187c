package transform

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// countingFlaky wraps flakyAccess and counts read/write operations so
// tests can observe how much work ran before an apply was abandoned.
type countingFlaky struct {
	flakyAccess
	ops atomic.Int64
}

func (c *countingFlaky) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	c.ops.Add(1)
	return c.flakyAccess.Query(path, reg)
}

func (c *countingFlaky) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	c.ops.Add(1)
	return c.flakyAccess.QueryInto(path, reg, dst, at)
}

func (c *countingFlaky) Upload(path string, t *tensor.Tensor) error {
	c.ops.Add(1)
	return c.flakyAccess.Upload(path, t)
}

func contextPlanFixture(t *testing.T) (*core.Plan, map[int]*countingFlaky, map[cluster.DeviceID]store.Access) {
	t.Helper()
	m := model.GPTCustom(4, 16, 2, 64, 8)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	golden := goldenState(from)
	plain := localStores(alloc(4))
	if err := LoadPTC(job, from, plain, golden); err != nil {
		t.Fatal(err)
	}
	wrapped := map[int]*countingFlaky{}
	stores := localStores(alloc(4))
	for d, acc := range plain {
		cf := &countingFlaky{}
		cf.inner = acc
		wrapped[int(d)] = cf
		stores[d] = cf
	}
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan, wrapped, stores
}

// The first fatal error cancels the apply: with a serial pool, queued
// assignments after the failing one must never start.
func TestApplyContextAbandonsWorkOnFirstError(t *testing.T) {
	plan, wrapped, stores := contextPlanFixture(t)
	for _, cf := range wrapped {
		cf.failEvery = 1 // every operation fails
	}
	tr := &Transformer{Job: "job0", Stores: stores, Parallelism: 1}
	if _, err := tr.Apply(plan); err == nil {
		t.Fatal("Apply succeeded despite injected faults")
	}
	var ops int64
	for _, cf := range wrapped {
		ops += cf.ops.Load()
	}
	if all := plan.AllAssignments(); ops >= int64(len(all)) {
		t.Fatalf("apply ran %d store ops across %d assignments; queued work was not abandoned after the first error",
			ops, len(all))
	}
}

// A context canceled before the apply starts stops it before any store
// operation runs.
func TestApplyContextPreCanceled(t *testing.T) {
	plan, wrapped, stores := contextPlanFixture(t)
	tr := &Transformer{Job: "job0", Stores: stores, Parallelism: 4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := tr.ApplyContext(ctx, plan)
	if err == nil {
		t.Fatal("ApplyContext with canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	for d, cf := range wrapped {
		if n := cf.ops.Load(); n != 0 {
			t.Fatalf("device %d ran %d ops under a pre-canceled context", d, n)
		}
	}
}

// blockingAccess has the context-taking method set (store.ContextAccess)
// and parks in-flight fetches until their context dies, proving the
// transformer routes cancellation into the store layer.
type blockingAccess struct {
	store.Access
	store.ContextAccess
	blocked atomic.Int64
}

func (b *blockingAccess) QueryIntoContext(ctx context.Context, path string, reg tensor.Region,
	dst *tensor.Tensor, at tensor.Region) (int64, error) {
	b.blocked.Add(1)
	<-ctx.Done()
	return 0, fmt.Errorf("fetch %s: %w", path, ctx.Err())
}

func TestApplyContextInterruptsInFlightFetch(t *testing.T) {
	plan, _, stores := contextPlanFixture(t)
	blocking := map[int]*blockingAccess{}
	for d, acc := range stores {
		ba := &blockingAccess{Access: acc, ContextAccess: store.WithContext(acc)}
		blocking[int(d)] = ba
		stores[d] = ba
	}
	tr := &Transformer{Job: "job0", Stores: stores, Parallelism: 4}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := tr.ApplyContext(ctx, plan)
		done <- err
	}()
	// Give fetches time to park inside the store, then cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ApplyContext succeeded with every fetch parked")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyContext did not return after cancellation; in-flight fetches were not interrupted")
	}
}
