package transform

import (
	"context"
	"strings"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
)

func TestReplicateAndRestore(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	cfg := parallel.Config{TP: 2, PP: 2, DP: 1}
	// One device per worker so replicas land on distinct machines.
	a := cluster.Allocation{0, 4, 8, 12}
	ptc := buildPTC(t, m, cfg, a)
	stores := localStores(topo.FirstN(16))
	golden := goldenState(ptc)
	const job = "job0"
	if err := LoadPTC(job, ptc, stores, golden); err != nil {
		t.Fatal(err)
	}

	written, err := Replicate(context.Background(), job, ptc, topo, stores, 1)
	if err != nil {
		t.Fatal(err)
	}
	if written != ptc.TotalPlacedBytes() {
		t.Fatalf("replicated %d bytes, want %d", written, ptc.TotalPlacedBytes())
	}

	// Worker 1 (device 4) dies; its store content is gone. Restore its
	// partition to device 5 from the replica on worker 2 (device 8).
	stores[4] = store.Local{FS: store.NewMemFS()} // simulate loss
	if err := RestoreFromReplicas(job, ptc, topo, stores, 4, 5, 1); err != nil {
		t.Fatal(err)
	}
	for _, s := range ptc.Place[4] {
		got, err := stores[5].Query(ModelPath(job, 5, s.Tensor), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(golden[s.Tensor].Slice(s.Region)) {
			t.Fatalf("restored %s differs", s.Tensor)
		}
	}
}

func TestReplicateMultipleCopies(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	a := cluster.Allocation{0, 4}
	ptc := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, a)
	stores := localStores(topo.FirstN(16))
	golden := goldenState(ptc)
	const job = "job0"
	if err := LoadPTC(job, ptc, stores, golden); err != nil {
		t.Fatal(err)
	}
	written, err := Replicate(context.Background(), job, ptc, topo, stores, 2)
	if err != nil {
		t.Fatal(err)
	}
	if written != 2*ptc.TotalPlacedBytes() {
		t.Fatalf("n=2 replicated %d bytes, want %d", written, 2*ptc.TotalPlacedBytes())
	}
	// Both the +1 and +2 workers lose their copies of device 0; the
	// restore falls back across the chain. Kill the first replica.
	// Device 0 lives on worker 0, replicas on workers 1 and 2.
	stores[4] = store.Local{FS: store.NewMemFS()}
	if err := RestoreFromReplicas(job, ptc, topo, stores, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	// All replicas gone -> error.
	stores[8] = store.Local{FS: store.NewMemFS()}
	err = RestoreFromReplicas(job, ptc, topo, stores, 0, 2, 2)
	if err == nil || !strings.Contains(err.Error(), "no surviving replica") {
		t.Fatalf("expected no-replica error, got %v", err)
	}
}

func TestReplicateValidation(t *testing.T) {
	topo := cluster.OnPrem16()
	m := model.GPTCustom(2, 16, 2, 64, 8)
	ptc := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 1}, cluster.Allocation{0})
	stores := localStores(topo.FirstN(16))
	if _, err := Replicate(context.Background(), "j", ptc, topo, stores, 0); err == nil {
		t.Fatal("replication factor 0 accepted")
	}
	if _, err := Replicate(context.Background(), "j", ptc, topo, stores, 4); err == nil {
		t.Fatal("replication factor == workers accepted")
	}
	// State not loaded -> read error.
	if _, err := Replicate(context.Background(), "j", ptc, topo, stores, 1); err == nil {
		t.Fatal("replicating missing state succeeded")
	}
}

// Over in-process stores a replica is the home device's tensor itself:
// Replicate reads by reference and hands over what it read, copying no
// payload byte.
func TestReplicateInProcessCopiesNothing(t *testing.T) {
	const job = "job0"
	topo := cluster.OnPrem16()
	devs := cluster.Allocation{0, 4, 8, 12}
	ptc := buildPTC(t, model.GPTCustom(2, 16, 2, 64, 8), parallel.Config{TP: 2, PP: 2, DP: 1}, devs)
	stores := localStores(devs)
	if err := LoadPTC(job, ptc, stores, goldenState(ptc)); err != nil {
		t.Fatal(err)
	}
	if _, err := Replicate(context.Background(), job, ptc, topo, stores, 2); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		home := topo.WorkerOf(d)
		for k := 1; k <= 2; k++ {
			r := topo.Workers[(home+k)%topo.NumWorkers()].Devices[0]
			for _, s := range ptc.Place[d] {
				held, _ := stores[d].Query(ModelPath(job, d, s.Tensor), nil)
				replica, err := stores[r].Query(replicaPath(job, d, s.Tensor), nil)
				if err != nil || replica != held {
					t.Fatalf("replica of %s from dev %d on dev %d is not the tensor the home store holds (err %v)", s.Tensor, d, r, err)
				}
			}
		}
	}
}
