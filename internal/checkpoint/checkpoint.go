// Package checkpoint persists partitioned model state from the Tensor
// Stores to remote blob storage and reads it back — including arbitrary
// sub-tensor ranges that may span partition boundaries, which is what
// failure recovery needs when it rebuilds lost state for a *different*
// parallelization than the checkpoint was written under. It keeps the
// pieces, manifest and latest marker; transform's device walk reaches the
// device stores.
package checkpoint

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// Meta is the checkpoint manifest persisted as JSON next to the
// partition files.
type Meta struct {
	Job    string `json:"job"`
	Step   int    `json:"step"`
	Config string `json:"config"` // human-readable parallelization name
	// Pieces maps tensor ID to the partition files that tile it.
	Pieces map[string][]Piece `json:"pieces"`
}

// Piece records where one sub-tensor of a checkpointed tensor lives.
type Piece struct {
	Path  string `json:"path"`
	Range string `json:"range"` // region in base coordinates
}

func ckptRoot(job string, step int) string { return fmt.Sprintf("/ckpt/%s/step%08d", job, step) }
func metaPath(job string, step int) string { return ckptRoot(job, step) + "/meta.json" }
func latestPath(job string) string         { return fmt.Sprintf("/ckpt/%s/latest", job) }

// saveDevicesInFlight bounds how many device stores Save reads, and
// Restore writes, at once, and with it how much state either holds: that
// many devices' sub-tensors, not the whole job's.
const saveDevicesInFlight = 2

// Save writes the state described by ptc — read from the per-device
// stores — into storage as a partitioned checkpoint for the given step.
// Replicated sub-tensors (DP copies) are written once, by the first
// device in rank order that holds them. transform.ReadDevices reads
// saveDevicesInFlight devices at a time, and a device's pieces are
// written out and dropped as soon as its read has landed.
//
// A job keeps one checkpoint: only the latest is ever opened, so once
// this step's pieces, its manifest and the latest marker are in storage
// — in that order, and not before — Save removes the step the marker
// named until then. A save that fails leaves that step and the marker
// as they were.
func Save(storage store.Access, job string, step int, ptc *core.PTC,
	stores map[cluster.DeviceID]store.Access) error {
	return save(storage, job, step, ptc.Name, len(ptc.Tensors), func(write writePiece) error {
		unique := ptc.Unique()
		return transform.ReadDevices(context.Background(), saveDevicesInFlight, job, ptc, stores, unique,
			func(g int, ts []*tensor.Tensor) error {
				for i, s := range unique[g] {
					if err := write(s, ts[i]); err != nil {
						return err
					}
				}
				return nil
			})
	})
}

// SaveTensors writes state — whole logical tensors the caller already
// holds, such as the initial state a deploy has just sent to the device
// stores — as the checkpoint for the given step: one piece per tensor,
// covering all of it, handed to storage as it is (an in-process store
// keeps the pointer, so nothing is copied and nothing is read back from
// any device). name is the manifest's human-readable config. Readers do
// not care how a checkpoint is cut: Restore and ReadRangeInto serve any
// parallelization from it. Publication and the fate of the previous step
// are Save's, to the letter.
func SaveTensors(storage store.Access, job string, step int, name string,
	state map[core.TensorID]*tensor.Tensor) error {
	return save(storage, job, step, name, len(state), func(write writePiece) error {
		for id, t := range state {
			if err := write(core.SubTensor{Tensor: id, Region: tensor.FullRegion(t.Shape())}, t); err != nil {
				return err
			}
		}
		return nil
	})
}

// writePiece stores one sub-tensor of the checkpoint being saved and
// enters it in the manifest; it is never run concurrently.
type writePiece func(core.SubTensor, *tensor.Tensor) error

// save is the frame both ways of writing a checkpoint share: pieces
// writes the step's sub-tensors through the function it is handed, then
// the manifest, then the latest marker go to storage, and only then is
// the step the marker named before removed.
func save(storage store.Access, job string, step int, name string, tensors int,
	pieces func(writePiece) error) error {
	blobs, ok := storage.(interface {
		PutBlob(string, []byte) error
	})
	if !ok {
		return fmt.Errorf("checkpoint: storage does not support blobs")
	}
	prev, prevErr := Latest(storage, job)
	root := ckptRoot(job, step)
	// Piece paths are cut from one string arena, and the manifest's piece
	// lists from one slice once every piece is in.
	type written struct {
		tensor string
		piece  Piece
	}
	var (
		paths tensor.StringArena
		buf   []byte // the path being built
		all   = make([]written, 0, tensors)
	)
	err := pieces(func(s core.SubTensor, t *tensor.Tensor) error {
		buf = append(append(buf[:0], root...), '/')
		buf = append(append(buf, s.Tensor...), '@')
		at := len(buf)
		buf = s.Region.Append(buf)
		path := paths.Cut(buf)
		if err := storage.Upload(path, t); err != nil {
			return fmt.Errorf("checkpoint: write %q: %w", path, err)
		}
		all = append(all, written{string(s.Tensor), Piece{Path: path, Range: path[at:]}})
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(all, func(a, b written) int {
		return cmp.Or(strings.Compare(a.tensor, b.tensor), strings.Compare(a.piece.Range, b.piece.Range))
	})
	meta := Meta{Job: job, Step: step, Config: name, Pieces: make(map[string][]Piece, tensors)}
	list := make([]Piece, len(all))
	for i := 0; i < len(all); {
		j := i
		for ; j < len(all) && all[j].tensor == all[i].tensor; j++ {
			list[j] = all[j].piece
		}
		meta.Pieces[all[i].tensor] = list[i:j:j]
		i = j
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("checkpoint: encode meta: %w", err)
	}
	if err := blobs.PutBlob(metaPath(job, step), blob); err != nil {
		return err
	}
	latest, _ := json.Marshal(step)
	if err := blobs.PutBlob(latestPath(job), latest); err != nil {
		return err
	}
	if prevErr == nil && prev != step {
		// The new checkpoint stands whether or not the old tree goes; what
		// a failed delete leaves is garbage, not an inconsistency.
		_ = storage.Delete(ckptRoot(job, prev))
	}
	return nil
}

// Latest returns the step of the most recent checkpoint for job.
func Latest(storage store.Access, job string) (int, error) {
	blob, err := getBlob(storage, latestPath(job))
	if err != nil {
		return 0, fmt.Errorf("checkpoint: no checkpoint for job %q: %w", job, err)
	}
	var step int
	if err := json.Unmarshal(blob, &step); err != nil {
		return 0, fmt.Errorf("checkpoint: corrupt latest marker: %w", err)
	}
	return step, nil
}

// getBlob reads the blob at path from storage.
func getBlob(storage store.Access, path string) ([]byte, error) {
	gs, ok := storage.(interface {
		GetBlob(string) ([]byte, error)
	})
	if !ok {
		return nil, fmt.Errorf("checkpoint: storage does not support blobs")
	}
	return gs.GetBlob(path)
}

// Reader serves sub-tensor ranges out of one checkpoint. It implements
// transform.StorageReader: ranges that span partition boundaries are
// assembled from every intersecting piece, fetching only the
// intersections (range reads against storage).
type Reader struct {
	Storage store.Access
	Meta    Meta
	// dtypes caches element types discovered by probing pieces; guarded
	// by mu because the transformer reads ranges concurrently.
	mu     sync.Mutex
	dtypes map[core.TensorID]tensor.DType
}

// Open loads the manifest of the checkpoint at step.
func Open(storage store.Access, job string, step int) (*Reader, error) {
	blob, err := getBlob(storage, metaPath(job, step))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s step %d: %w", job, step, err)
	}
	var meta Meta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt manifest: %w", err)
	}
	return &Reader{Storage: storage, Meta: meta}, nil
}

// OpenLatest opens the job's most recent checkpoint.
func OpenLatest(storage store.Access, job string) (*Reader, error) {
	step, err := Latest(storage, job)
	if err != nil {
		return nil, err
	}
	return Open(storage, job, step)
}

var _ transform.StorageReader = (*Reader)(nil)
var _ transform.StorageRangeWriter = (*Reader)(nil)

// ReadRangeInto implements transform.StorageRangeWriter: the requested
// range lands directly in the sub-region at of dst (nil for all of
// dst). Ranges spanning partition boundaries are filled piecewise, each
// intersection range-read from storage straight into its final offset —
// no per-piece sub-tensor and no assembly step. It returns the payload
// bytes written into dst.
func (r *Reader) ReadRangeInto(id core.TensorID, want tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	pieces, ok := r.Meta.Pieces[string(id)]
	if !ok {
		return 0, fmt.Errorf("checkpoint: tensor %q not in checkpoint (step %d)", id, r.Meta.Step)
	}
	if at == nil {
		at = tensor.FullRegion(dst.Shape())
	}
	if !tensor.ShapeEqual(want.Shape(), at.Shape()) {
		return 0, fmt.Errorf("checkpoint: range %v does not fit destination region %v", want, at)
	}
	var written int64
	covered := 0
	for _, p := range pieces {
		reg, err := tensor.ParseRegion(p.Range, nil)
		if err != nil {
			return written, fmt.Errorf("checkpoint: corrupt range %q: %w", p.Range, err)
		}
		inter, overlap := reg.Intersect(want)
		if !overlap {
			continue
		}
		// inter in the piece's local coordinates, and its destination
		// inside dst: re-based against want, then shifted to at.
		target := inter.Translate(want.Offset()).Shift(at.Offset())
		n, err := r.Storage.QueryInto(p.Path, inter.Translate(reg.Offset()), dst, target)
		if err != nil {
			return written, fmt.Errorf("checkpoint: read %q: %w", p.Path, err)
		}
		written += n
		covered += inter.NumElems()
	}
	if covered < want.NumElems() {
		return written, fmt.Errorf("checkpoint: range %v of %q not covered (%d of %d elements)",
			want, id, covered, want.NumElems())
	}
	return written, nil
}

// ReadRange implements transform.StorageReader by allocating the range
// once and streaming into it; retained for callers that need an owned
// tensor. The dtype comes from the first intersecting piece's stored
// tensor.
func (r *Reader) ReadRange(id core.TensorID, want tensor.Region) (*tensor.Tensor, error) {
	dt, err := r.dtypeOf(id)
	if err != nil {
		return nil, err
	}
	out := tensor.New(dt, want.Shape()...)
	if _, err := r.ReadRangeInto(id, want, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// dtypeOf discovers (and caches) the element type of a checkpointed
// tensor by querying the smallest corner of its first piece.
func (r *Reader) dtypeOf(id core.TensorID) (tensor.DType, error) {
	r.mu.Lock()
	dt, ok := r.dtypes[id]
	r.mu.Unlock()
	if ok {
		return dt, nil
	}
	pieces, ok := r.Meta.Pieces[string(id)]
	if !ok || len(pieces) == 0 {
		return tensor.Invalid, fmt.Errorf("checkpoint: tensor %q not in checkpoint (step %d)", id, r.Meta.Step)
	}
	reg, err := tensor.ParseRegion(pieces[0].Range, nil)
	if err != nil {
		return tensor.Invalid, fmt.Errorf("checkpoint: corrupt range %q: %w", pieces[0].Range, err)
	}
	corner := make(tensor.Region, len(reg))
	for i := range reg {
		corner[i] = tensor.Range{Lo: 0, Hi: 1}
	}
	probe, err := r.Storage.Query(pieces[0].Path, corner)
	if err != nil {
		return tensor.Invalid, fmt.Errorf("checkpoint: probe %q: %w", pieces[0].Path, err)
	}
	r.mu.Lock()
	if r.dtypes == nil {
		r.dtypes = map[core.TensorID]tensor.DType{}
	}
	r.dtypes[id] = probe.DType()
	r.mu.Unlock()
	return probe.DType(), nil
}

// Restore loads a full checkpoint into the stores of a (possibly
// different) PTC — the "load partitioned checkpoints under a new
// parallelization" path: every destination sub-tensor is allocated once,
// streamed in from the checkpoint pieces and handed over to its store by
// transform.WriteDevices, which reads saveDevicesInFlight devices at a
// time, so Restore holds that many devices' sub-tensors, not the job's.
func Restore(ctx context.Context, r *Reader, job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access) error {
	return transform.WriteDevices(ctx, saveDevicesInFlight, ptc.Devices, stores, false, func(g int) ([]store.UploadItem, error) {
		d := ptc.Devices[g]
		items := make([]store.UploadItem, len(ptc.Place[d]))
		for i, s := range ptc.Place[d] {
			meta, ok := ptc.Tensors[s.Tensor]
			if !ok {
				return nil, fmt.Errorf("checkpoint: no metadata for %q", s.Tensor)
			}
			t := tensor.NewFromRegion(meta.DType, s.Region)
			if _, err := r.ReadRangeInto(s.Tensor, s.Region, t, nil); err != nil {
				return nil, err
			}
			items[i] = store.UploadItem{Path: transform.ModelPath(job, d, s.Tensor), View: t.FullView()}
		}
		return items, nil
	})
}
