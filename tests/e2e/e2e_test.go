package e2e

import (
	"testing"
	"time"

	"tenplex/internal/api"
	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/obs"
	"tenplex/internal/store"
)

// startStores boots n tensor-store HTTP servers on ephemeral ports and
// returns one client per device.
func startStores(t *testing.T, n int) []*store.Client {
	t.Helper()
	clients := make([]*store.Client, n)
	for i := 0; i < n; i++ {
		srv := store.NewServer(store.NewMemFS())
		bound, closeFn, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		t.Cleanup(func() { _ = closeFn() })
		clients[i] = &store.Client{Base: "http://" + bound}
	}
	return clients
}

// TestE2EInProcess runs the full service split inside the test
// process: 4 tensor-store servers over HTTP, the coordinator service
// in wall-clock mode with its device stores pointed at them, and the
// REST API on an ephemeral port. The multi-job workload goes entirely
// through the public HTTP surface; every byte of job state moves over
// the wire. This mode runs in tier-1 (and under -race in CI).
func TestE2EInProcess(t *testing.T) {
	clients := startStores(t, 4)
	svc, err := coordinator.StartService(cluster.Cloud(4), coordinator.Options{
		WallScale: 2 * time.Millisecond,
		Placement: true,
		Metrics:   obs.NewRegistry(),
		Stores: func(job string, dev cluster.DeviceID) store.Access {
			return clients[int(dev)]
		},
	})
	if err != nil {
		t.Fatalf("StartService: %v", err)
	}
	srv, err := api.NewServer(api.Config{
		Service: svc,
		Tenants: []api.Tenant{{Name: "e2e", Token: "e2e-token"}},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	bound, closeFn, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = closeFn() })

	c := &client{base: "http://" + bound, token: "e2e-token", t: t}
	ids, canceled := driveWorkload(t, c, clients)
	checkEvents(t, c, ids, canceled)
	lat := checkMetrics(t, c, 4, true)
	t.Logf("in-process e2e: %s", fmtLatency(lat))
	checkStoreState(t, clients, ids)

	res, err := svc.Stop()
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	completed := 0
	for _, j := range res.Jobs {
		if j.Completed {
			completed++
		}
	}
	if completed < 3 {
		t.Fatalf("final result: %d jobs completed, want >= 3", completed)
	}
}
