package transform

import (
	"context"
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// Replication (§5.3): to survive frequent failures, Tenplex can
// replicate the model state held in each device's Tensor Store to the
// stores of the next n workers, round-robin. If a worker fails and the
// state in its store is lost, the replicas on the following workers
// still hold it, so recovery avoids stale persisted checkpoints.

// replicaPath is where device d's partition is mirrored on another
// worker's store.
func replicaPath(job string, d cluster.DeviceID, id core.TensorID) string {
	return fmt.Sprintf("/job/%s/replica/dev%d/%s", job, d, id)
}

// Replicate copies every device's partition of the PTC to the Tensor
// Stores of its next n workers (round-robin by worker index). It
// returns the bytes written. Stores are addressed by the first device
// of the target worker. The home devices are read one at a time by
// ReadDevices, and once all are in, WriteDevices writes each replica
// store: over wire stores that is one batch read a home device and one
// batch upload a replica store; an in-process store hands its tensors
// over, and takes them, one at a time and by reference.
func Replicate(ctx context.Context, job string, ptc *core.PTC, topo *cluster.Topology,
	stores map[cluster.DeviceID]store.Access, n int) (int64, error) {
	if n < 1 || n >= topo.NumWorkers() {
		return 0, fmt.Errorf("transform: replication factor %d of %d workers", n, topo.NumWorkers())
	}
	var (
		written int64
		dsts    []cluster.DeviceID // the replica stores, in order of first use
		items   = map[cluster.DeviceID][]store.UploadItem{}
		subs    = make([][]core.SubTensor, len(ptc.Devices))
	)
	for g, d := range ptc.Devices {
		subs[g] = ptc.Place[d]
	}
	err := ReadDevices(ctx, 1, job, ptc, stores, subs, func(g int, ts []*tensor.Tensor) error {
		d := ptc.Devices[g]
		home := topo.WorkerOf(d)
		for k := 1; k <= n; k++ {
			dst := topo.Workers[(home+k)%topo.NumWorkers()].Devices[0]
			if _, ok := items[dst]; !ok {
				dsts = append(dsts, dst)
			}
			for i, s := range subs[g] {
				items[dst] = append(items[dst], store.UploadItem{Path: replicaPath(job, d, s.Tensor), View: ts[i].FullView()})
				written += int64(ts[i].NumBytes())
			}
		}
		return nil
	})
	if err == nil {
		err = WriteDevices(ctx, defaultParallelism, dsts, stores, false, func(k int) ([]store.UploadItem, error) {
			return items[dsts[k]], nil
		})
	}
	if err != nil {
		return 0, err
	}
	return written, nil
}

// RestoreFromReplicas rebuilds the model partition of a lost device
// into the store of a replacement device, reading the round-robin
// replicas written by Replicate. The PTC is the placement the lost
// device had.
func RestoreFromReplicas(job string, ptc *core.PTC, topo *cluster.Topology,
	stores map[cluster.DeviceID]store.Access, lost, replacement cluster.DeviceID, n int) error {
	dst, ok := stores[replacement]
	if !ok {
		return fmt.Errorf("transform: no store for replacement device %d", replacement)
	}
	home := topo.WorkerOf(lost)
	for _, s := range ptc.Place[lost] {
		var restored bool
		for k := 1; k <= n && !restored; k++ {
			repl, ok := stores[topo.Workers[(home+k)%topo.NumWorkers()].Devices[0]]
			if !ok {
				continue
			}
			t, err := repl.Query(replicaPath(job, lost, s.Tensor), nil)
			if err != nil {
				continue // this replica may be lost too
			}
			if err := dst.Upload(ModelPath(job, replacement, s.Tensor), t); err != nil {
				return fmt.Errorf("transform: restore write: %w", err)
			}
			restored = true
		}
		if !restored {
			return fmt.Errorf("transform: no surviving replica of %q (device %d)", s.Tensor, lost)
		}
	}
	return nil
}
