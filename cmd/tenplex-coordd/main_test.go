package main

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/model"
	"tenplex/internal/store"
	"tenplex/internal/transform"
)

// TestFailedApplySurvives: the service tenplex-coordd runs outlives a
// store that fails one staging upload of a reconfiguration. The job
// whose apply failed rolls back, applies the change again and completes
// bit-verified, and the service takes and finishes the next job.
func TestFailedApplySurvives(t *testing.T) {
	opts, err := options("fifo", true, 2*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	var injected atomic.Bool
	hook := func(ctx context.Context, op store.Op) (store.Op, error) {
		if strings.HasPrefix(op.Name, "upload") && strings.HasPrefix(op.Path, transform.StagingRoot("a")) && !injected.Swap(true) {
			return op, errors.New("injected: store unreachable")
		}
		return op, op.Call(ctx)
	}
	topo := cluster.Cloud(4)
	stores := make([]store.Access, len(topo.Devices))
	for i := range stores {
		stores[i] = store.Wrap(store.Local{FS: store.NewMemFS()}, hook)
	}
	opts.Stores = func(job string, dev cluster.DeviceID) store.Access { return stores[dev] }
	svc, err := coordinator.StartService(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Stop()

	run := func(name string) {
		t.Helper()
		if err := svc.Submit(coordinator.JobSpec{Name: name, Model: model.GPTCustom(4, 16, 2, 32, 8),
			GPUs: 2, MinGPUs: 1, MaxGPUs: 4, DurationMin: 200}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		scaled := name != "a"
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			st, err := svc.Job(name)
			if err != nil {
				t.Fatalf("job %s: %v", name, err)
			}
			if st.State == "running" && !scaled {
				// The reconfiguration whose staging upload fails.
				if err := svc.Scale(name, 4); err != nil {
					t.Fatalf("scale %s: %v", name, err)
				}
				scaled = true
			}
			if st.State == "completed" && st.Verified {
				return
			}
			if st.State == "lost" || st.State == "rejected" || time.Now().After(deadline) {
				t.Fatalf("job %s: %+v", name, st)
			}
		}
	}
	run("a")
	if !injected.Load() {
		t.Fatal("no staging upload of a's reconfiguration was failed")
	}
	run("b")
}
