package store

import (
	"context"
	"io"
	"time"

	"tenplex/internal/obs"
	"tenplex/internal/tensor"
)

// Observe wraps an Access with per-operation datapath spans: every
// query, upload, delete, list and rename records one leaf span under
// the scope's current task context, carrying the op, path, payload
// bytes and — when the operation failed — the error. The wrapper sits
// OUTSIDE any chaos wrapper, so injected faults and the retries they
// trigger are visible in the trace as the failed operations they are.
// Recording is gated on the scope's level (LevelDatapath), so a
// phases-level tracer pays one atomic load per operation and nothing
// else.
func Observe(inner Access, tag string, scope *obs.ScopeVar) Access {
	o := &observedAccess{inner: inner, tag: tag, scope: scope}
	// Forward a capability only when the wrapped store actually has it:
	// separate wrapper types keep a plain observed Local from falsely
	// asserting as a BatchQuerier or an Assembler.
	if r, ok := inner.(Remote); ok {
		return &observedRemote{observedBatchAccess: observedBatchAccess{o}, remote: r}
	}
	if _, ok := inner.(BatchQuerier); ok {
		return &observedBatchAccess{observedAccess: o}
	}
	return o
}

// observedRemote forwards the rest of a wire store's capability set:
// the context-aware variants record the same spans as the plain calls
// and hand the caller's context through, so tracing a store does not
// cost it mid-transfer cancellation; Assemble records one
// store.assemble span per request, UploadBatch one store.upload_batch
// span and, deep or not, its count, bytes and latency in the tracer's
// registry.
type observedRemote struct {
	observedBatchAccess
	remote Remote
}

var _ Remote = (*observedRemote)(nil)

func (o *observedRemote) Address() string { return o.remote.Address() }

func (o *observedRemote) Assemble(ctx context.Context, items []AssembleItem) (AssembleStats, error) {
	c := o.scope.Get()
	if !c.Deep() {
		return o.remote.Assemble(ctx, items)
	}
	start := time.Now()
	st, err := o.remote.Assemble(ctx, items)
	attrs := map[string]any{"op": "assemble", "store": o.tag, "items": int64(len(items))}
	if st.BytesCopied > 0 {
		attrs["bytes"] = st.BytesCopied
	}
	if st.LinkedBytes > 0 {
		attrs["linked"] = st.LinkedBytes
	}
	if err != nil {
		attrs["err"] = err.Error()
	}
	c.Record(obs.StorePrefix+"assemble", obs.CatDatapath, time.Since(start).Nanoseconds(), attrs)
	return st, err
}

func (o *observedRemote) UploadBatch(ctx context.Context, items []UploadItem) error {
	c := o.scope.Get()
	if c == nil || !c.T.Enabled() {
		return o.remote.UploadBatch(ctx, items)
	}
	start := time.Now()
	err := o.remote.UploadBatch(ctx, items)
	wall := time.Since(start).Nanoseconds()
	var bytes int64
	for _, it := range items {
		bytes += int64(it.View.NumBytes())
	}
	reg := c.T.Metrics()
	reg.Add("store.client.upload_batch.count", 1)
	reg.Add("store.client.upload_batch.bytes", bytes)
	reg.Histogram("store.client.upload_batch_ns").Observe(wall)
	if c.Deep() {
		attrs := map[string]any{"op": "upload_batch", "store": o.tag, "items": int64(len(items)), "bytes": bytes}
		if err != nil {
			attrs["err"] = err.Error()
		}
		c.Record(obs.StorePrefix+"upload_batch", obs.CatDatapath, wall, attrs)
	}
	return err
}

func (o *observedRemote) QueryContext(ctx context.Context, path string, reg tensor.Region) (t *tensor.Tensor, err error) {
	err = o.span("query", path, func() (int64, error) {
		t, err = o.remote.QueryContext(ctx, path, reg)
		return tensorBytes(t), err
	})
	return t, err
}

func (o *observedRemote) QueryIntoContext(ctx context.Context, path string, reg tensor.Region,
	dst *tensor.Tensor, at tensor.Region) (n int64, err error) {
	err = o.span("query", path, func() (int64, error) {
		n, err = o.remote.QueryIntoContext(ctx, path, reg, dst, at)
		return n, err
	})
	return n, err
}

func (o *observedRemote) UploadContext(ctx context.Context, path string, t *tensor.Tensor) error {
	return o.span("upload", path, func() (int64, error) {
		return int64(t.NumBytes()), o.remote.UploadContext(ctx, path, t)
	})
}

func (o *observedRemote) UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error {
	return o.span("upload", path, func() (int64, error) {
		return tensor.ShapeNumBytes(dt, shape), o.remote.UploadFromContext(ctx, path, dt, shape, r)
	})
}

func (o *observedRemote) DeleteContext(ctx context.Context, path string) error {
	return o.span("delete", path, func() (int64, error) { return 0, o.remote.DeleteContext(ctx, path) })
}

func (o *observedRemote) ListContext(ctx context.Context, path string) (names []string, err error) {
	err = o.span("list", path, func() (int64, error) {
		names, err = o.remote.ListContext(ctx, path)
		return 0, err
	})
	return names, err
}

func (o *observedRemote) RenameContext(ctx context.Context, src, dst string) error {
	return o.span("rename", src, func() (int64, error) { return 0, o.remote.RenameContext(ctx, src, dst) })
}

// observedBatchAccess augments observedAccess with BatchQuerier
// forwarding plus a store.batch span carrying the frame/byte counts.
type observedBatchAccess struct{ *observedAccess }

var _ BatchQuerier = (*observedBatchAccess)(nil)

func (o *observedBatchAccess) BatchQueryInto(ctx context.Context, entries []BatchEntry) (BatchStats, error) {
	bq := o.inner.(BatchQuerier)
	c := o.scope.Get()
	if !c.Deep() {
		return bq.BatchQueryInto(ctx, entries)
	}
	start := time.Now()
	st, err := bq.BatchQueryInto(ctx, entries)
	attrs := map[string]any{"op": "batch", "store": o.tag,
		"entries": int64(st.Entries), "frames": int64(st.Frames)}
	if st.Bytes > 0 {
		attrs["bytes"] = st.Bytes
	}
	if err != nil {
		attrs["err"] = err.Error()
	}
	c.Record(obs.StorePrefix+"batch", obs.CatDatapath, time.Since(start).Nanoseconds(), attrs)
	return st, err
}

type observedAccess struct {
	inner Access
	tag   string
	scope *obs.ScopeVar
}

var _ Access = (*observedAccess)(nil)

// record emits one store-operation span. The span's payload is a pure
// function of the operation and its deterministic outcome, so sim-mode
// trace bytes stay schedule-independent (wall time is stripped by the
// tracer in deterministic mode).
func (o *observedAccess) record(c *obs.TaskCtx, op, path string, bytes int64, start time.Time, err error) {
	attrs := map[string]any{"op": op, "path": path, "store": o.tag}
	if bytes > 0 {
		attrs["bytes"] = bytes
	}
	if err != nil {
		attrs["err"] = err.Error()
	}
	c.Record(obs.StorePrefix+op, obs.CatDatapath, time.Since(start).Nanoseconds(), attrs)
}

// span runs one operation and, when the scope is deep, records it; fn
// returns the payload bytes the operation moved. Every operation of the
// wrapper, plain or context-aware, goes through here.
func (o *observedAccess) span(op, path string, fn func() (int64, error)) error {
	c := o.scope.Get()
	if !c.Deep() {
		_, err := fn()
		return err
	}
	start := time.Now()
	n, err := fn()
	o.record(c, op, path, n, start, err)
	return err
}

func tensorBytes(t *tensor.Tensor) int64 {
	if t == nil {
		return 0
	}
	return int64(t.NumBytes())
}

func (o *observedAccess) Query(path string, reg tensor.Region) (t *tensor.Tensor, err error) {
	err = o.span("query", path, func() (int64, error) {
		t, err = o.inner.Query(path, reg)
		return tensorBytes(t), err
	})
	return t, err
}

func (o *observedAccess) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (n int64, err error) {
	err = o.span("query", path, func() (int64, error) {
		n, err = o.inner.QueryInto(path, reg, dst, at)
		return n, err
	})
	return n, err
}

func (o *observedAccess) Upload(path string, t *tensor.Tensor) error {
	return o.span("upload", path, func() (int64, error) {
		return int64(t.NumBytes()), o.inner.Upload(path, t)
	})
}

func (o *observedAccess) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	return o.span("upload", path, func() (int64, error) {
		return tensor.ShapeNumBytes(dt, shape), o.inner.UploadFrom(path, dt, shape, r)
	})
}

func (o *observedAccess) Delete(path string) error {
	return o.span("delete", path, func() (int64, error) { return 0, o.inner.Delete(path) })
}

func (o *observedAccess) List(path string) (names []string, err error) {
	err = o.span("list", path, func() (int64, error) {
		names, err = o.inner.List(path)
		return 0, err
	})
	return names, err
}

func (o *observedAccess) Rename(src, dst string) error {
	return o.span("rename", src, func() (int64, error) { return 0, o.inner.Rename(src, dst) })
}

// UploadsByReference preserves the wrapped store's copy-accounting
// contract (transform.uploadCopies type-asserts store.RefUploader), so
// observing a store never changes the transformer's noop fast path or
// its copy-amplification numbers.
func (o *observedAccess) UploadsByReference() bool {
	ru, ok := o.inner.(RefUploader)
	return ok && ru.UploadsByReference()
}
