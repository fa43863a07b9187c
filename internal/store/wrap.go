package store

import (
	"context"
	"io"

	"tenplex/internal/tensor"
)

// Op is one operation of a store wrapped by Wrap, as its Hook sees it.
type Op struct {
	// Name is query, queryinto, upload, uploadfrom, delete, list,
	// rename, batch, assemble or uploadbatch. A *Context method runs the
	// operation of its plain twin.
	Name string
	// Path is the tensor or tree the operation names (a rename's
	// source), Dst a rename's target, Reg the range a query reads.
	Path, Dst string
	Reg       tensor.Region
	// Entries, Items and Uploads are what a batch, an assemble and an
	// uploadbatch carry.
	Entries []BatchEntry
	Items   []AssembleItem
	Uploads []UploadItem
	// Set by Call: the payload bytes the operation moved, and what a
	// batch or an assemble reported.
	Bytes     int64
	Batch     BatchStats
	Assembled AssembleStats

	on    any            // the store Call runs the operation on
	t     *tensor.Tensor // a query's result, an upload's source, a queryinto's destination
	at    tensor.Region
	dt    tensor.DType
	shape []int
	r     io.Reader
	names []string
}

// Hook runs one operation of a store wrapped by Wrap: op.Call runs it on
// the wrapped store, and the hook returns op as Call left it, with the
// error the caller is to see. An Op travels by value, so a hook that
// only passes an operation through costs it no allocation.
type Hook func(ctx context.Context, op Op) (Op, error)

// Wrap returns inner with every operation run through h. The wrapper has
// exactly inner's capabilities — RefUploader, BatchQuerier, the whole of
// Remote — so wrapping a store changes neither the route the transformer
// picks nor its copy accounting. Access's operations run on
// WithContext(inner): a plain method hands h context.Background(), a
// *Context method (a Remote's) the caller's, so a cancel still reaches an
// in-flight transfer.
func Wrap(inner Access, h Hook) Access {
	w := &wrapped{inner: inner, on: WithContext(inner), h: h}
	ru, ref := inner.(RefUploader)
	switch inner.(type) {
	case Remote:
		if ref {
			return struct {
				wrappedRemote
				RefUploader
			}{wrappedRemote{wrappedBatch{w}}, ru}
		}
		return wrappedRemote{wrappedBatch{w}}
	case BatchQuerier:
		if ref {
			return struct {
				wrappedBatch
				RefUploader
			}{wrappedBatch{w}, ru}
		}
		return wrappedBatch{w}
	}
	if ref {
		return struct {
			*wrapped
			RefUploader
		}{w, ru}
	}
	return w
}

// Call runs op on the wrapped store and fills in what it moved.
func (op *Op) Call(ctx context.Context) (err error) {
	switch op.Name {
	case "query":
		op.t, err = op.on.(ContextAccess).QueryContext(ctx, op.Path, op.Reg)
		if op.t != nil {
			op.Bytes = int64(op.t.NumBytes())
		}
	case "queryinto":
		op.Bytes, err = op.on.(ContextAccess).QueryIntoContext(ctx, op.Path, op.Reg, op.t, op.at)
	case "upload":
		op.Bytes = int64(op.t.NumBytes())
		err = op.on.(ContextAccess).UploadContext(ctx, op.Path, op.t)
	case "uploadfrom":
		op.Bytes = tensor.ShapeNumBytes(op.dt, op.shape)
		err = op.on.(ContextAccess).UploadFromContext(ctx, op.Path, op.dt, op.shape, op.r)
	case "delete":
		err = op.on.(ContextAccess).DeleteContext(ctx, op.Path)
	case "list":
		op.names, err = op.on.(ContextAccess).ListContext(ctx, op.Path)
	case "rename":
		err = op.on.(ContextAccess).RenameContext(ctx, op.Path, op.Dst)
	case "batch":
		op.Batch, err = op.on.(BatchQuerier).BatchQueryInto(ctx, op.Entries)
		op.Bytes = op.Batch.Bytes
	case "assemble":
		op.Assembled, err = op.on.(Assembler).Assemble(ctx, op.Items)
		op.Bytes = op.Assembled.BytesCopied
	case "uploadbatch":
		op.Bytes = 0
		for _, it := range op.Uploads {
			op.Bytes += int64(it.View.NumBytes())
		}
		err = op.on.(BatchUploader).UploadBatch(ctx, op.Uploads)
	}
	return err
}

// wrapped is Wrap over any Access. Its operations run on on, inner's
// context-taking method set, its plain ones under context.Background().
type wrapped struct {
	inner Access
	on    ContextAccess
	h     Hook
}

func (w *wrapped) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	op, err := w.h(context.Background(), Op{Name: "query", Path: path, Reg: reg, on: w.on})
	return op.t, err
}

func (w *wrapped) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	op, err := w.h(context.Background(), Op{Name: "queryinto", Path: path, Reg: reg, t: dst, at: at, on: w.on})
	return op.Bytes, err
}

func (w *wrapped) Upload(path string, t *tensor.Tensor) error {
	_, err := w.h(context.Background(), Op{Name: "upload", Path: path, t: t, on: w.on})
	return err
}

func (w *wrapped) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	_, err := w.h(context.Background(), Op{Name: "uploadfrom", Path: path, dt: dt, shape: shape, r: r, on: w.on})
	return err
}

func (w *wrapped) Delete(path string) error {
	_, err := w.h(context.Background(), Op{Name: "delete", Path: path, on: w.on})
	return err
}

func (w *wrapped) List(path string) ([]string, error) {
	op, err := w.h(context.Background(), Op{Name: "list", Path: path, on: w.on})
	return op.names, err
}

func (w *wrapped) Rename(src, dst string) error {
	_, err := w.h(context.Background(), Op{Name: "rename", Path: src, Dst: dst, on: w.on})
	return err
}

// wrappedBatch is Wrap over a store that takes batches.
type wrappedBatch struct{ *wrapped }

func (w wrappedBatch) BatchQueryInto(ctx context.Context, entries []BatchEntry) (BatchStats, error) {
	op, err := w.h(ctx, Op{Name: "batch", Entries: entries, on: w.inner})
	return op.Batch, err
}

// wrappedRemote is Wrap over a Remote.
type wrappedRemote struct{ wrappedBatch }

func (w wrappedRemote) Address() string { return w.inner.(Addressable).Address() }

func (w wrappedRemote) Assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error) {
	op, err := w.h(ctx, Op{Name: "assemble", Items: items, on: w.inner})
	return op.Assembled, err
}

func (w wrappedRemote) UploadBatch(ctx context.Context, items []UploadItem) error {
	_, err := w.h(ctx, Op{Name: "uploadbatch", Uploads: items, on: w.inner})
	return err
}

func (w wrappedRemote) QueryContext(ctx context.Context, path string, reg tensor.Region) (*tensor.Tensor, error) {
	op, err := w.h(ctx, Op{Name: "query", Path: path, Reg: reg, on: w.on})
	return op.t, err
}

func (w wrappedRemote) QueryIntoContext(ctx context.Context, path string, reg tensor.Region,
	dst *tensor.Tensor, at tensor.Region) (int64, error) {
	op, err := w.h(ctx, Op{Name: "queryinto", Path: path, Reg: reg, t: dst, at: at, on: w.on})
	return op.Bytes, err
}

func (w wrappedRemote) UploadContext(ctx context.Context, path string, t *tensor.Tensor) error {
	_, err := w.h(ctx, Op{Name: "upload", Path: path, t: t, on: w.on})
	return err
}

func (w wrappedRemote) UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error {
	_, err := w.h(ctx, Op{Name: "uploadfrom", Path: path, dt: dt, shape: shape, r: r, on: w.on})
	return err
}

func (w wrappedRemote) DeleteContext(ctx context.Context, path string) error {
	_, err := w.h(ctx, Op{Name: "delete", Path: path, on: w.on})
	return err
}

func (w wrappedRemote) ListContext(ctx context.Context, path string) ([]string, error) {
	op, err := w.h(ctx, Op{Name: "list", Path: path, on: w.on})
	return op.names, err
}

func (w wrappedRemote) RenameContext(ctx context.Context, src, dst string) error {
	_, err := w.h(ctx, Op{Name: "rename", Path: src, Dst: dst, on: w.on})
	return err
}

// WithContext returns acc's context-taking method set: acc's own when it
// has one (*Client, Wrap over a Remote), else acc's plain methods, each
// run only if its context is not yet done.
func WithContext(acc Access) ContextAccess {
	switch a := acc.(type) {
	case ContextAccess:
		return a
	case Local: // one pointer wide, so this allocates nothing per call
		return dropContext[Local]{a}
	}
	return dropContext[Access]{acc}
}

// dropContext gives a plain Access the context-taking method set: the
// context is checked before the plain call and not passed on.
type dropContext[A Access] struct{ a A }

func (d dropContext[A]) QueryContext(ctx context.Context, path string, reg tensor.Region) (*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d.a.Query(path, reg)
}

func (d dropContext[A]) QueryIntoContext(ctx context.Context, path string, reg tensor.Region,
	dst *tensor.Tensor, at tensor.Region) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return d.a.QueryInto(path, reg, dst, at)
}

func (d dropContext[A]) UploadContext(ctx context.Context, path string, t *tensor.Tensor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.a.Upload(path, t)
}

func (d dropContext[A]) UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.a.UploadFrom(path, dt, shape, r)
}

func (d dropContext[A]) DeleteContext(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.a.Delete(path)
}

func (d dropContext[A]) ListContext(ctx context.Context, path string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d.a.List(path)
}

func (d dropContext[A]) RenameContext(ctx context.Context, src, dst string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.a.Rename(src, dst)
}
