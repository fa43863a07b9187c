package transform

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

func TestApplyDistributedMatchesSingle(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(6, 32, 4, 128, 16)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 4, DP: 2}, alloc(16))
	to := buildPTC(t, m, parallel.Config{TP: 2, PP: 2, DP: 2}, alloc(8))
	golden := goldenState(from)

	// Single-transformer reference.
	single := localStores(alloc(16))
	if err := LoadPTC(job, from, single, golden); err != nil {
		t.Fatal(err)
	}
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	stS, err := (&Transformer{Job: job, Stores: single}).Apply(plan)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGolden(t, job, to, single, golden)

	// Distributed execution: one transformer per worker.
	dist := localStores(alloc(16))
	if err := LoadPTC(job, from, dist, golden); err != nil {
		t.Fatal(err)
	}
	stD, err := ApplyDistributed(job, plan, topo, dist, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyAgainstGolden(t, job, to, dist, golden)

	// Same work was done, byte for byte: the per-worker transformers run
	// the loop a single one runs.
	stS.Duration, stD.Duration = 0, 0
	if stS != stD {
		t.Fatalf("distributed stats differ: single %+v vs distributed %+v", stS, stD)
	}
	// Departed devices cleared in both.
	for _, d := range []cluster.DeviceID{8, 12} {
		if _, err := dist[d].List("/job/job0/model"); err == nil {
			t.Fatalf("device %d still holds state after distributed apply", d)
		}
	}
}

func TestApplyDistributedFailureRecovery(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	golden := goldenState(from)
	stores := localStores(alloc(4))
	if err := LoadPTC(job, from, stores, golden); err != nil {
		t.Fatal(err)
	}
	degraded := from.WithoutDevices(1)
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, alloc(1))
	plan, err := core.GeneratePlan(degraded, to, core.PlanOptions{StorageFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	// Without storage: error propagates from the owning worker.
	if _, err := ApplyDistributed(job, plan, topo, stores, nil); err == nil {
		t.Fatal("distributed apply without storage succeeded")
	}
	st, err := ApplyDistributed(job, plan, topo, stores, memStorage(golden))
	if err != nil {
		t.Fatal(err)
	}
	if st.StorageBytes == 0 {
		t.Fatal("no storage reads recorded")
	}
	verifyAgainstGolden(t, job, to, stores, golden)
}

// pairFault fails the first read of each of two paths, and only once
// both are in flight, so an apply meets exactly two assignment failures
// before its cancellation can abandon either.
type pairFault struct {
	mu      sync.Mutex
	pending map[string]bool
	both    chan struct{}
}

func newPairFault(a, b string) *pairFault {
	return &pairFault{pending: map[string]bool{a: true, b: true}, both: make(chan struct{})}
}

type pairFaultStore struct {
	store.Access
	pf *pairFault
}

func (s pairFaultStore) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	s.pf.mu.Lock()
	hit := s.pf.pending[path]
	if hit {
		delete(s.pf.pending, path)
		if len(s.pf.pending) == 0 {
			close(s.pf.both)
		}
	}
	s.pf.mu.Unlock()
	if !hit {
		return s.Access.QueryInto(path, reg, dst, at)
	}
	select {
	case <-s.pf.both:
	case <-time.After(10 * time.Second): // a serial loop never gets the second read going
	}
	return 0, errors.New("injected read fault")
}

// Both entry points report a failed plan the same way: every assignment
// error, sorted, joined. The per-worker path used to return the first
// one only.
func TestApplyAndApplyDistributedReportSameFailures(t *testing.T) {
	const job = "twofail"
	from, _, plan, golden := migrateFixture(t)
	// Two tensors a destination reads from device 0.
	var paths []string
	for _, a := range plan.Assignments {
		for _, f := range a.Fetch {
			if p := ModelPath(job, 0, a.Tensor); len(paths) < 2 && a.Device == 2 &&
				f.Src.Kind == core.FromDevice && f.Src.Device == 0 && (len(paths) == 0 || paths[0] != p) {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) != 2 {
		t.Fatalf("fixture reads %d tensors from device 0, want 2", len(paths))
	}
	run := func(apply func(stores map[cluster.DeviceID]store.Access) error) string {
		t.Helper()
		stores := localStores(alloc(4))
		if err := LoadPTC(job, from, stores, golden); err != nil {
			t.Fatal(err)
		}
		stores[0] = pairFaultStore{Access: stores[0], pf: newPairFault(paths[0], paths[1])}
		err := apply(stores)
		if err == nil {
			t.Fatal("apply survived two injected read faults")
		}
		return err.Error()
	}
	single := run(func(stores map[cluster.DeviceID]store.Access) error {
		_, err := (&Transformer{Job: job, Stores: stores}).Apply(plan)
		return err
	})
	// Devices 2 and 3 share a worker, so one per-worker transformer sees
	// both failures.
	dist := run(func(stores map[cluster.DeviceID]store.Access) error {
		_, err := ApplyDistributed(job, plan, cluster.OnPrem16(), stores, nil)
		return err
	})
	if !strings.HasPrefix(single, "transform: 2 assignments failed: ") || strings.Count(single, "injected read fault") != 2 {
		t.Fatalf("Apply reported %q, want both failures", single)
	}
	lines := strings.Split(strings.TrimPrefix(single, "transform: 2 assignments failed: "), "\n")
	if len(lines) != 2 || lines[0] >= lines[1] {
		t.Fatalf("Apply's failures are not two distinct sorted lines: %q", lines)
	}
	if want := "transform: distributed apply: worker 0: " + single; dist != want {
		t.Fatalf("ApplyDistributed reported\n%q\nwant\n%q", dist, want)
	}
}
