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
// of the target worker. Over wire stores a home device is read once (one
// batch) and a replica store written once (one batch upload, after every
// home device has been read); an in-process store hands its tensors
// over, and takes them, one at a time and by reference.
func Replicate(job string, ptc *core.PTC, topo *cluster.Topology,
	stores map[cluster.DeviceID]store.Access, n int) (int64, error) {
	if n < 1 || n >= topo.NumWorkers() {
		return 0, fmt.Errorf("transform: replication factor %d of %d workers", n, topo.NumWorkers())
	}
	var (
		written, queued int64          // bytes uploaded; bytes waiting in batches
		batches         []deviceUpload // one per batch-capable replica store, in order of first use
		batchOf         = map[cluster.DeviceID]int{}
	)
	// replicate writes t, device d's copy of id, to d's n replica stores,
	// or queues it for the store's batch.
	replicate := func(d cluster.DeviceID, id core.TensorID, t *tensor.Tensor) error {
		home := topo.WorkerOf(d)
		for k := 1; k <= n; k++ {
			w := topo.Workers[(home+k)%topo.NumWorkers()]
			dstDev := w.Devices[0]
			dst, ok := stores[dstDev]
			if !ok {
				return fmt.Errorf("transform: no store for replica worker %d", w.ID)
			}
			if _, batch := dst.(store.BatchUploader); !batch {
				if err := dst.Upload(replicaPath(job, d, id), t); err != nil {
					return fmt.Errorf("transform: replicate write: %w", err)
				}
				written += int64(t.NumBytes())
				continue
			}
			queued += int64(t.NumBytes())
			b, ok := batchOf[dstDev]
			if !ok {
				b = len(batches)
				batchOf[dstDev] = b
				batches = append(batches, deviceUpload{dev: dstDev, store: dst})
			}
			batches[b].items = append(batches[b].items, store.UploadItem{Path: replicaPath(job, d, id), View: t.FullView()})
		}
		return nil
	}
	for _, d := range ptc.Devices {
		src, ok := stores[d]
		if !ok {
			return written, fmt.Errorf("transform: no store for device %d", d)
		}
		place := ptc.Place[d]
		bq, batch := src.(store.BatchQuerier)
		if batch && len(place) > 0 {
			entries := make([]store.BatchEntry, len(place))
			for i, s := range place {
				meta, ok := ptc.Tensors[s.Tensor]
				if !ok {
					return written, fmt.Errorf("transform: no metadata for %q", s.Tensor)
				}
				entries[i] = store.BatchEntry{Path: ModelPath(job, d, s.Tensor), Dst: tensor.NewFromRegion(meta.DType, s.Region)}
			}
			if _, err := bq.BatchQueryInto(context.TODO(), entries); err != nil {
				return written, fmt.Errorf("transform: replicate read dev %d: %w", d, err)
			}
			for i, s := range place {
				if err := replicate(d, s.Tensor, entries[i].Dst); err != nil {
					return written, err
				}
			}
			continue
		}
		for _, s := range place {
			t, err := src.Query(ModelPath(job, d, s.Tensor), nil)
			if err != nil {
				return written, fmt.Errorf("transform: replicate read %q: %w", s.Tensor, err)
			}
			if err := replicate(d, s.Tensor, t); err != nil {
				return written, err
			}
		}
	}
	if err := uploadDevices(context.TODO(), defaultParallelism, batches); err != nil {
		return written, err
	}
	return written + queued, nil
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
			w := topo.Workers[(home+k)%topo.NumWorkers()]
			replDev := w.Devices[0]
			repl, ok := stores[replDev]
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
