// Package checkpoint persists partitioned model state and reads it back
// — including arbitrary sub-tensor ranges that may span partition
// boundaries, which is what failure recovery needs when it rebuilds lost
// state for a *different* parallelization than the checkpoint was
// written under. A checkpoint's pieces live in one of three places: in
// the blob storage that also keeps the manifest and the latest marker
// (Save), on the Tensor Store of a device that does not hold the piece
// (SaveToPeers), or nowhere, when the manifest says the piece is a
// seeded fill it can generate again (Seed). Restore is the one way a
// checkpoint's state goes onto the device stores, which transform's
// device walk reaches.
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

// Piece records where one sub-tensor of a checkpointed tensor lives: at
// Path in the checkpoint storage, at Path on the store of Device, or, when
// Gen is set, nowhere — the piece is that region of the seeded fill Gen
// describes, generated when it is read.
type Piece struct {
	Path   string            `json:"path,omitempty"`
	Range  string            `json:"range"` // region in base coordinates
	Device *cluster.DeviceID `json:"device,omitempty"`
	Gen    *tensor.RandDense `json:"gen,omitempty"`
}

func ckptRoot(job string, step int) string { return fmt.Sprintf("/ckpt/%s/step%08d", job, step) }

// peerRoot is where a device store keeps its pieces of a step: inside
// the job's tree, so deleting the job's state deletes them, and outside
// its model and staging trees, so a reload keeps them.
func peerRoot(job string, step int) string { return fmt.Sprintf("/job/%s/ckpt/step%08d", job, step) }
func metaPath(job string, step int) string { return ckptRoot(job, step) + "/meta.json" }
func latestPath(job string) string         { return fmt.Sprintf("/ckpt/%s/latest", job) }

// saveDevicesInFlight bounds how many device stores Save reads at once,
// and with it how much state it holds: that many devices' sub-tensors,
// not the whole job's.
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

// writePiece stores one sub-tensor of the checkpoint being saved and
// enters it in the manifest; it is never run concurrently.
type writePiece func(core.SubTensor, *tensor.Tensor) error

// save is Save's frame: pieces writes the step's sub-tensors into
// storage through the function it is handed, then the manifest, then the
// latest marker go to storage, and only then is the step the marker
// named before removed.
func save(storage store.Access, job string, step int, name string, tensors int,
	pieces func(writePiece) error) error {
	blobs, ok := storage.(blobStore)
	if !ok {
		return fmt.Errorf("checkpoint: storage does not support blobs")
	}
	prev, prevErr := Latest(storage, job)
	root := ckptRoot(job, step)
	// Piece paths are cut from one string arena, and the manifest's piece
	// lists from one slice once every piece is in.
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
	if err := publish(blobs, manifest(job, step, name, tensors, all)); err != nil {
		return err
	}
	if prevErr == nil && prev != step {
		// The new checkpoint stands whether or not the old tree goes; what
		// a failed delete leaves is garbage, not an inconsistency.
		_ = storage.Delete(ckptRoot(job, prev))
	}
	return nil
}

// written is one piece of a checkpoint being saved, with its tensor.
type written struct {
	tensor string
	piece  Piece
}

// blobStore is what checkpoint storage must offer: the manifest and the
// latest marker are blobs.
type blobStore interface {
	PutBlob(string, []byte) error
}

// manifest is the manifest of step, built from its pieces.
func manifest(job string, step int, name string, tensors int, all []written) Meta {
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
	return meta
}

// publish writes meta and then the latest marker naming its step: from
// then on the step is the checkpoint.
func publish(blobs blobStore, meta Meta) error {
	blob, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("checkpoint: encode meta: %w", err)
	}
	if err := blobs.PutBlob(metaPath(meta.Job, meta.Step), blob); err != nil {
		return err
	}
	latest, _ := json.Marshal(meta.Step)
	return blobs.PutBlob(latestPath(meta.Job), latest)
}

// file is the frame of SaveToPeers and SaveSeed: once write (nil for a
// checkpoint whose pieces are in place) has put the pieces of meta's
// step on the stores, meta and the latest marker go to storage, and
// only then is the step the marker named until then dropped. A write or
// publication that fails leaves that step and the marker as they were.
func file(storage store.Access, stores map[cluster.DeviceID]store.Access, meta Meta, write func() error) error {
	blobs, ok := storage.(blobStore)
	if !ok {
		return fmt.Errorf("checkpoint: storage does not support blobs")
	}
	prev, prevErr := Latest(storage, meta.Job)
	if write != nil {
		if err := write(); err != nil {
			return err
		}
	}
	if err := publish(blobs, meta); err != nil {
		return err
	}
	if prevErr == nil && prev != meta.Step {
		drop(storage, stores, meta.Job, prev)
	}
	return nil
}

// SaveToPeers writes the state described by ptc as the checkpoint for
// the given step, leaving every piece on a device store: each distinct
// sub-tensor (ptc.Unique, replicas once) is copied from the device that
// holds it to the store of the device peerDevices names for it, one that holds
// no part of it, under the job's tree. A store that assembles from its
// peers (store.Assembler) is sent one request that pulls all of its
// pieces store to store, provided every holder it pulls from is
// Addressable; any other store is handed each piece as the holder's store
// answers a Query, which an in-process store does by reference; the
// peer stores work at once as transform.FanOut allows. No piece passes
// through storage, which receives the manifest — naming each piece's
// device — and the latest marker, in that order and only once every
// piece is in; then the previous step's pieces are deleted on their
// stores (file). A save that fails deletes what it wrote of this step
// and leaves the previous one and the marker as they were.
func SaveToPeers(ctx context.Context, storage store.Access, job string, step int, ptc *core.PTC, topo *cluster.Topology,
	stores map[cluster.DeviceID]store.Access) error {
	peers, err := peerDevices(topo, ptc)
	if err != nil {
		return err
	}
	unique := ptc.Unique()
	root := peerRoot(job, step)
	var (
		targets []cluster.DeviceID // the peer stores, in the order they first appear
		byPeer  = map[cluster.DeviceID][]copied{}
		devs    = map[cluster.DeviceID]*cluster.DeviceID{} // one pointer per device for the manifest
		all     = make([]written, 0, len(ptc.Tensors))
		paths   tensor.StringArena
		buf     []byte
	)
	for g, subs := range unique {
		for i, s := range subs {
			to := peers[g][i]
			if _, ok := stores[to]; !ok {
				return fmt.Errorf("checkpoint: no store for peer device %d", to)
			}
			if devs[to] == nil {
				devs[to] = &to
				targets = append(targets, to)
			}
			buf = append(append(buf[:0], root...), '/')
			buf = append(append(buf, s.Tensor...), '@')
			at := len(buf)
			buf = s.Region.Append(buf)
			path := paths.Cut(buf)
			byPeer[to] = append(byPeer[to], copied{ptc.Devices[g], s, path})
			all = append(all, written{string(s.Tensor), Piece{Path: path, Range: path[at:], Device: devs[to]}})
		}
	}
	err = file(storage, stores, manifest(job, step, ptc.Name, len(ptc.Tensors), all), func() error {
		return transform.FanOut[store.Assembler](ctx, len(targets), targets, stores, func(k int, _ store.Access) error {
			return copyPieces(ctx, job, ptc, stores, targets[k], byPeer[targets[k]])
		})
	})
	if err != nil {
		for _, to := range targets {
			_ = stores[to].Delete(root) // what this step wrote, if anything
		}
	}
	return err
}

// copied is one piece of a checkpoint being saved to peers: sub-tensor s
// of device from, to be kept at path.
type copied struct {
	from cluster.DeviceID
	s    core.SubTensor
	path string
}

// copyPieces puts pieces on the store of device to: in one /assemble that
// pulls them from their holders when the store assembles and every
// holder is Addressable, else each as its holder's store answers a Query.
func copyPieces(ctx context.Context, job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access,
	to cluster.DeviceID, pieces []copied) error {
	acc := stores[to]
	if asm, ok := acc.(store.Assembler); ok {
		pull := make([]store.AssembleItem, 0, len(pieces))
		for _, c := range pieces {
			src, ok := stores[c.from].(store.Addressable)
			if !ok {
				break
			}
			pull = append(pull, store.AssembleItem{Path: c.path, DType: ptc.Tensors[c.s.Tensor].DType,
				Shape: c.s.Region.Shape(), Fetch: []store.AssembleFetch{{Source: src.Address(),
					Path: transform.ModelPath(job, c.from, c.s.Tensor)}}})
		}
		if len(pull) == len(pieces) {
			if _, err := asm.Assemble(ctx, pull); err != nil {
				return fmt.Errorf("checkpoint: pieces to dev %d: %w", to, err)
			}
			return nil
		}
	}
	for _, c := range pieces {
		t, err := store.WithContext(stores[c.from]).QueryContext(ctx, transform.ModelPath(job, c.from, c.s.Tensor), nil)
		if err == nil {
			err = store.WithContext(acc).UploadContext(ctx, c.path, t)
		}
		if err != nil {
			return fmt.Errorf("checkpoint: piece %q from dev %d to dev %d: %w", c.path, c.from, to, err)
		}
	}
	return nil
}

// Seed is checkpoint step of job, holding no bytes: tensor id of the
// state is the seeded fill gens[id] describes, and the manifest says so
// with one piece per tensor, which the Reader generates when it is read.
// It is in memory only until SaveSeed files it.
func Seed(job string, step int, name string, gens map[core.TensorID]tensor.RandDense) *Reader {
	all := make([]written, 0, len(gens))
	for id, g := range gens {
		all = append(all, written{string(id), Piece{Range: tensor.FullRegion(g.Shape).String(), Gen: &g}})
	}
	return &Reader{Meta: manifest(job, step, name, len(gens), all)}
}

// SaveSeed files seed (see Seed) as its job's checkpoint, through the
// frame SaveToPeers files its pieces through (file).
func SaveSeed(storage store.Access, seed *Reader, stores map[cluster.DeviceID]store.Access) error {
	return file(storage, stores, seed.Meta, nil)
}

// Drop deletes job's latest checkpoint as a later save would: its
// pieces on the device stores its manifest lists, then its tree in
// storage. The latest marker is left, naming nothing.
func Drop(storage store.Access, stores map[cluster.DeviceID]store.Access, job string) {
	if step, err := Latest(storage, job); err == nil {
		drop(storage, stores, job, step)
	}
}

// drop removes checkpoint step prev, which the latest marker no longer
// names: its pieces on the device stores its manifest lists, the stores
// at once as transform.FanOut allows, then its tree in storage, manifest
// included. What a failed delete leaves is garbage, not an
// inconsistency.
func drop(storage store.Access, stores map[cluster.DeviceID]store.Access, job string, prev int) {
	if r, err := Open(storage, job, prev); err == nil {
		var devs []cluster.DeviceID
		for _, pieces := range r.Meta.Pieces {
			for _, p := range pieces {
				if p.Device != nil && stores[*p.Device] != nil && !slices.Contains(devs, *p.Device) {
					devs = append(devs, *p.Device)
				}
			}
		}
		slices.Sort(devs)
		_ = transform.FanOut[store.Remote](context.Background(), len(devs), devs, stores, func(_ int, acc store.Access) error {
			return acc.Delete(peerRoot(job, prev))
		})
	}
	_ = storage.Delete(ckptRoot(job, prev))
}

// peerDevices says where each distinct sub-tensor of ptc keeps its checkpoint
// copy: peers[g][i] is the device for ptc.Unique()[g][i], one that holds
// no part of that sub-tensor. Counting from the holder, in rank order and
// wrapping around, it is the next such device of the allocation on
// another worker when the allocation spans more than one; else the next
// such device of the allocation; and when every device of the allocation
// holds the sub-tensor (a one-device job, or a pure replica), the next
// such device of the topology. Only a sub-tensor every device of the
// topology holds is kept by a holder, the next device of the topology.
// The rule reads the placement and which worker a device sits on,
// nothing of the topology's health, so a checkpoint may run beside the
// decision plane that marks failures.
func peerDevices(topo *cluster.Topology, ptc *core.PTC) ([][]cluster.DeviceID, error) {
	if topo == nil {
		return nil, fmt.Errorf("checkpoint: no topology to place pieces on")
	}
	devs := ptc.Devices
	spans := false
	for _, d := range devs {
		spans = spans || topo.WorkerOf(d) != topo.WorkerOf(devs[0])
	}
	unique := ptc.Unique()
	out := make([][]cluster.DeviceID, len(unique))
	for g, subs := range unique {
		from := devs[g]
		out[g] = make([]cluster.DeviceID, len(subs))
		for i, s := range subs {
			holders := ptc.Holders(s.Tensor, s.Region)
			free := func(d cluster.DeviceID) bool { return !slices.Contains(holders, d) }
			to, found := cluster.DeviceID(0), false
			for pass := 0; pass < 2 && !found; pass++ {
				for k := 1; k < len(devs) && !found; k++ {
					d := devs[(g+k)%len(devs)]
					if free(d) && (pass == 1 || spans && topo.WorkerOf(d) != topo.WorkerOf(from)) {
						to, found = d, true
					}
				}
			}
			for k := 1; k < topo.NumDevices() && !found; k++ {
				if d := cluster.DeviceID((int(from) + k) % topo.NumDevices()); free(d) {
					to, found = d, true
				}
			}
			if !found { // every device holds it: any copy is as safe as any other
				to = cluster.DeviceID((int(from) + 1) % topo.NumDevices())
			}
			out[g][i] = to
		}
	}
	return out, nil
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
// intersections — range reads against storage, or against the store of
// the device a peer piece lives on, or generated for a seeded piece.
type Reader struct {
	Storage store.Access
	// Stores are the device stores peer pieces are read from (see
	// SaveToPeers); a checkpoint without peer pieces needs none.
	Stores map[cluster.DeviceID]store.Access
	Meta   Meta
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
		if p.Gen != nil {
			if err := p.Gen.FillRegion(inter, dst, target); err != nil {
				return written, fmt.Errorf("checkpoint: generate %q%v: %w", id, inter, err)
			}
			written += inter.NumBytes(dst.DType())
			covered += inter.NumElems()
			continue
		}
		src, err := r.source(p)
		if err != nil {
			return written, err
		}
		n, err := src.QueryInto(p.Path, inter.Translate(reg.Offset()), dst, target)
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

// source is the store that holds piece p: the device store it names, or
// storage.
func (r *Reader) source(p Piece) (store.Access, error) {
	if p.Device == nil {
		return r.Storage, nil
	}
	acc, ok := r.Stores[*p.Device]
	if !ok {
		return nil, fmt.Errorf("checkpoint: no store for dev %d, which holds %q", *p.Device, p.Path)
	}
	return acc, nil
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
	if g := pieces[0].Gen; g != nil {
		return g.DType, nil
	}
	reg, err := tensor.ParseRegion(pieces[0].Range, nil)
	if err != nil {
		return tensor.Invalid, fmt.Errorf("checkpoint: corrupt range %q: %w", pieces[0].Range, err)
	}
	corner := make(tensor.Region, len(reg))
	for i := range reg {
		corner[i] = tensor.Range{Lo: 0, Hi: 1}
	}
	src, err := r.source(pieces[0])
	if err != nil {
		return tensor.Invalid, err
	}
	probe, err := src.Query(pieces[0].Path, corner)
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

// Restore writes the checkpoint r onto the stores of ptc, a placement
// it may never have been cut for: the one way a checkpoint's state goes
// onto the stores, a deploy's seed included. Every distinct sub-tensor
// (ptc.Unique) is read out of r once, by ReadRangeInto, and sent to
// every device that holds exactly that region. Each device's distinct
// sub-tensors go in chunks (transform.Chunks), the devices at once as
// transform.FanOut allows, so one chunk is read while another is on its
// way, and one restore holds at most transform.ChunksInFlight chunks.
// As in every walk, a device store is written by one worker at a time.
// An in-process store is handed the tensors read for it by reference,
// replicas included: nothing else refers to them.
func Restore(ctx context.Context, r *Reader, job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access) error {
	unique := ptc.Unique()
	pool := transform.NewChunkPool()
	defer pool.Close()
	turns := make(map[cluster.DeviceID]*sync.Mutex, len(ptc.Devices))
	for _, d := range ptc.Devices {
		turns[d] = new(sync.Mutex)
	}
	return transform.FanOut[store.BatchUploader](ctx, len(ptc.Devices), ptc.Devices, stores, func(g int, _ store.Access) error {
		for _, c := range transform.Chunks(ptc, unique[g]) {
			if err := restoreChunk(ctx, r, job, ptc, stores, turns, c, pool); err != nil {
				return err
			}
		}
		return nil
	})
}

// restoreChunk reads the sub-tensors c out of r, into a chunk buffer
// when every store they go to copies what it is sent, and sends each to
// every device that holds it, once it has the turns of all of them,
// taken in device order.
func restoreChunk(ctx context.Context, r *Reader, job string, ptc *core.PTC, stores map[cluster.DeviceID]store.Access,
	turns map[cluster.DeviceID]*sync.Mutex, c []core.SubTensor, pool transform.ChunkPool) error {
	var (
		devs  []cluster.DeviceID
		to    = make([][]int, len(c)) // the indices into devs each sub-tensor goes to
		bytes int
	)
	for i, s := range c {
		bytes += int(s.NumBytes(ptc.Tensors[s.Tensor]))
		for _, d := range ptc.Holders(s.Tensor, s.Region) {
			if !slices.ContainsFunc(ptc.Place[d], func(h core.SubTensor) bool { return h.Tensor == s.Tensor && h.Region.Equal(s.Region) }) {
				continue // d holds only a region overlapping s
			}
			k := slices.Index(devs, d)
			if k < 0 {
				k = len(devs)
				devs = append(devs, d)
			}
			to[i] = append(to[i], k)
		}
	}
	// A chunk buffer is reused, so it can only take what is copied out
	// of it, and only up to ChunkBytes: it is kept between restores.
	reuse := bytes <= transform.ChunkBytes && !slices.ContainsFunc(devs, func(d cluster.DeviceID) bool {
		ru, ok := stores[d].(store.RefUploader)
		return ok && ru.UploadsByReference()
	})
	buf := <-pool
	defer func() { pool <- buf }()
	alloc := tensor.NewFromRegion
	if reuse {
		buf.Reset(bytes)
		alloc = buf.New
	}
	items := make([][]store.UploadItem, len(devs))
	for i, s := range c {
		t := alloc(ptc.Tensors[s.Tensor].DType, s.Region)
		if _, err := r.ReadRangeInto(s.Tensor, s.Region, t, nil); err != nil {
			return err
		}
		for _, k := range to[i] {
			items[k] = append(items[k], store.UploadItem{Path: transform.ModelPath(job, devs[k], s.Tensor), View: t.FullView()})
		}
	}
	held := slices.Sorted(slices.Values(devs))
	for _, d := range held {
		turns[d].Lock()
		defer turns[d].Unlock()
	}
	return transform.WriteDevices(ctx, len(devs), devs, stores, reuse, func(k int) ([]store.UploadItem, error) {
		return items[k], nil
	})
}
