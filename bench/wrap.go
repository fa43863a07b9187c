package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tenplex/internal/core"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// The wrappers below sit at the public boundaries of store, net/http
// and checkpoint. They exist only in the traced pass; the untraced pass
// hands the program its stores and servers bare.

type spanKey struct{}

// withSpan carries a store-client span to the round tripper through the
// request context, which store.Client derives from the caller's.
func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// spanHeader carries the round-trip span to the server handler, which
// runs in the same process but on the far side of a TCP connection.
const spanHeader = "X-Bench-Span"

// ctxStore is the context-aware side of a store: the optional methods
// transform probes its stores for. store.Client has all of them; the
// wrapper must keep them visible or the transformer would take its
// no-context path through a traced store and the traced pass would run
// different code.
type ctxStore interface {
	QueryContext(ctx context.Context, path string, reg tensor.Region) (*tensor.Tensor, error)
	QueryIntoContext(ctx context.Context, path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error)
	UploadContext(ctx context.Context, path string, t *tensor.Tensor) error
	UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error
	DeleteContext(ctx context.Context, path string) error
	ListContext(ctx context.Context, path string) ([]string, error)
	RenameContext(ctx context.Context, src, dst string) error
}

// plainCtx gives a store without context-aware methods (store.Local)
// the ctxStore shape the way transform treats such a store: check the
// context, then make the plain call.
type plainCtx struct{ store.Access }

func (p plainCtx) QueryContext(ctx context.Context, path string, reg tensor.Region) (*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.Query(path, reg)
}

func (p plainCtx) QueryIntoContext(ctx context.Context, path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return p.QueryInto(path, reg, dst, at)
}

func (p plainCtx) UploadContext(ctx context.Context, path string, t *tensor.Tensor) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.Upload(path, t)
}

func (p plainCtx) UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.UploadFrom(path, dt, shape, r)
}

func (p plainCtx) DeleteContext(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.Delete(path)
}

func (p plainCtx) ListContext(ctx context.Context, path string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.List(path)
}

func (p plainCtx) RenameContext(ctx context.Context, src, dst string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.Rename(src, dst)
}

// tracedAccess records one store.client.<op> span per call on a
// device's store.
type tracedAccess struct {
	inner store.Access
	cs    ctxStore // inner's context-aware side
	// wire is set when inner takes contexts itself (store.Client): only
	// then is there a round tripper for the span to be carried to.
	wire bool
	tr   *tracer
}

// tracedBatchAccess adds BatchQuerier only over a store that has it, so
// a traced Local does not start looking batch-capable to the
// transformer.
type tracedBatchAccess struct{ *tracedAccess }

func traceAccess(inner store.Access, tr *tracer) store.Access {
	a := &tracedAccess{inner: inner, tr: tr}
	if cs, ok := inner.(ctxStore); ok {
		a.cs, a.wire = cs, true
	} else {
		a.cs = plainCtx{inner}
	}
	if _, ok := inner.(store.BatchQuerier); ok {
		return &tracedBatchAccess{a}
	}
	return a
}

var (
	_ store.Access       = (*tracedAccess)(nil)
	_ store.RefUploader  = (*tracedAccess)(nil)
	_ store.BatchQuerier = (*tracedBatchAccess)(nil)
)

// call runs one store operation inside its span: under the caller's
// span when the context carries one, else under the loop's current
// phase. fn returns the payload bytes the span should carry. name is
// the full span name, a constant at every call site: this runs a
// thousand times per job and must not allocate for it.
func (a *tracedAccess) call(ctx context.Context, name string, fn func(ctx context.Context) (int64, error)) error {
	parent := spanFrom(ctx)
	if parent == 0 {
		parent = a.tr.current()
	}
	id := a.tr.start(name, parent)
	if a.wire {
		ctx = withSpan(ctx, id)
	}
	n, err := fn(ctx)
	a.tr.endWith(id, n)
	return err
}

func (a *tracedAccess) UploadsByReference() bool {
	ru, ok := a.inner.(store.RefUploader)
	return ok && ru.UploadsByReference()
}

func (a *tracedBatchAccess) BatchQueryInto(ctx context.Context, entries []store.BatchEntry) (st store.BatchStats, err error) {
	err = a.call(ctx, pfxClient+"batch_query", func(ctx context.Context) (int64, error) {
		st, err = a.inner.(store.BatchQuerier).BatchQueryInto(ctx, entries)
		return st.Bytes, err
	})
	a.tr.addBatch(st)
	return st, err
}

func (a *tracedAccess) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	return a.QueryContext(context.Background(), path, reg)
}

func (a *tracedAccess) QueryContext(ctx context.Context, path string, reg tensor.Region) (t *tensor.Tensor, err error) {
	err = a.call(ctx, pfxClient+"query", func(ctx context.Context) (int64, error) {
		t, err = a.cs.QueryContext(ctx, path, reg)
		if t == nil {
			return 0, err
		}
		return int64(t.NumBytes()), err
	})
	return t, err
}

func (a *tracedAccess) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	return a.QueryIntoContext(context.Background(), path, reg, dst, at)
}

func (a *tracedAccess) QueryIntoContext(ctx context.Context, path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (n int64, err error) {
	err = a.call(ctx, pfxClient+"query_into", func(ctx context.Context) (int64, error) {
		n, err = a.cs.QueryIntoContext(ctx, path, reg, dst, at)
		return n, err
	})
	return n, err
}

func (a *tracedAccess) Upload(path string, t *tensor.Tensor) error {
	return a.UploadContext(context.Background(), path, t)
}

func (a *tracedAccess) UploadContext(ctx context.Context, path string, t *tensor.Tensor) error {
	return a.call(ctx, pfxClient+"upload", func(ctx context.Context) (int64, error) {
		return int64(t.NumBytes()), a.cs.UploadContext(ctx, path, t)
	})
}

func (a *tracedAccess) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	return a.UploadFromContext(context.Background(), path, dt, shape, r)
}

func (a *tracedAccess) UploadFromContext(ctx context.Context, path string, dt tensor.DType, shape []int, r io.Reader) error {
	return a.call(ctx, pfxClient+"upload_from", func(ctx context.Context) (int64, error) {
		return tensor.ShapeNumBytes(dt, shape), a.cs.UploadFromContext(ctx, path, dt, shape, r)
	})
}

func (a *tracedAccess) Delete(path string) error {
	return a.DeleteContext(context.Background(), path)
}

func (a *tracedAccess) DeleteContext(ctx context.Context, path string) error {
	return a.call(ctx, pfxClient+"delete", func(ctx context.Context) (int64, error) {
		return 0, a.cs.DeleteContext(ctx, path)
	})
}

func (a *tracedAccess) List(path string) ([]string, error) {
	return a.ListContext(context.Background(), path)
}

func (a *tracedAccess) ListContext(ctx context.Context, path string) (names []string, err error) {
	err = a.call(ctx, pfxClient+"list", func(ctx context.Context) (int64, error) {
		names, err = a.cs.ListContext(ctx, path)
		return 0, err
	})
	return names, err
}

func (a *tracedAccess) Rename(src, dst string) error {
	return a.RenameContext(context.Background(), src, dst)
}

func (a *tracedAccess) RenameContext(ctx context.Context, src, dst string) error {
	return a.call(ctx, pfxClient+"rename", func(ctx context.Context) (int64, error) {
		return 0, a.cs.RenameContext(ctx, src, dst)
	})
}

// batchCounters sums what the batch protocol reported per iteration.
type batchCounters struct{ entries, frames, coalesced int64 }

func (t *tracer) addBatch(st store.BatchStats) {
	if t == nil {
		return
	}
	it := t.iter.Load()
	t.mu.Lock()
	if t.batch == nil {
		t.batch = map[int32]batchCounters{}
	}
	c := t.batch[it]
	c.entries += int64(st.Entries)
	c.frames += int64(st.Frames)
	c.coalesced += int64(st.Coalesced)
	t.batch[it] = c
	t.mu.Unlock()
}

// httpCounters are the transport-level numbers httptrace and the body
// wrappers give per iteration; times in ns.
type httpCounters struct {
	dials, ttfbNs, bodyNs, reqBytes, respBytes int64
}

func (t *tracer) addHTTP(it int32, d httpCounters) {
	t.mu.Lock()
	if t.http == nil {
		t.http = map[int32]httpCounters{}
	}
	c := t.http[it]
	c.dials += d.dials
	c.ttfbNs += d.ttfbNs
	c.bodyNs += d.bodyNs
	c.reqBytes += d.reqBytes
	c.respBytes += d.respBytes
	t.http[it] = c
	t.mu.Unlock()
}

// tracedTransport records one http.roundtrip span per request, open
// from RoundTrip until the response body is closed, and is injected
// through store.Client.HTTP.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	if parent == 0 {
		parent = rt.tr.current()
	}
	it := rt.tr.iter.Load()
	id := rt.tr.start(spanRoundTrip, parent)
	start := rt.tr.now()

	var firstByte atomic.Int64
	var dials int64
	ct := &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				atomic.AddInt64(&dials, 1)
			}
		},
		GotFirstResponseByte: func() { firstByte.Store(rt.tr.now()) },
	}
	req = req.Clone(httptrace.WithClientTrace(req.Context(), ct))
	req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	// A request that declares its length is taken at its word and its
	// body left alone: wrapping it would hide the body's type from
	// net/http and change how the transport writes it.
	var sent *countingBody
	if req.ContentLength < 0 && req.Body != nil {
		sent = &countingBody{rc: req.Body}
		req.Body = sent
	}

	resp, err := rt.inner.RoundTrip(req)
	finish := func(respBytes int64) {
		end := rt.tr.now()
		c := httpCounters{dials: atomic.LoadInt64(&dials), respBytes: respBytes, reqBytes: max(req.ContentLength, 0)}
		if sent != nil {
			c.reqBytes = sent.n.Load()
		}
		if fb := firstByte.Load(); fb != 0 {
			c.ttfbNs, c.bodyNs = fb-start, end-fb
		}
		rt.tr.addHTTP(it, c)
		rt.tr.endWith(id, respBytes)
	}
	if err != nil {
		finish(0)
		return nil, err
	}
	body := &countingBody{rc: resp.Body}
	body.onClose = func() { finish(body.n.Load()) }
	resp.Body = body
	return resp, nil
}

// countingBody counts the bytes read through it and reports once when
// it is closed.
type countingBody struct {
	rc      io.ReadCloser
	n       atomic.Int64
	once    sync.Once
	onClose func()
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	if b.onClose != nil {
		b.once.Do(b.onClose)
	}
	return err
}

// serverClass buckets a store server endpoint the way the per-layer
// metrics name them.
func serverClass(path string) string {
	switch strings.TrimPrefix(path, "/") {
	case "batch", "upload", "query":
		return strings.TrimPrefix(path, "/")
	}
	return "meta"
}

// tracedHandler records one store.server.<class> span per request
// around a store.Server, linked to the client's round-trip span.
func tracedHandler(srv http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.start(pfxServer+serverClass(r.URL.Path), int32(parent))
		srv.ServeHTTP(w, r)
		tr.end(id)
	})
}

// tracedStorage records one checkpoint.read_range span per range the
// transformer reads back from checkpoint storage. It keeps the reader's
// scatter-write side visible so recovery stays on the single-copy path.
type tracedStorage struct {
	inner interface {
		transform.StorageReader
		transform.StorageRangeWriter
	}
	tr *tracer
}

var (
	_ transform.StorageReader      = (*tracedStorage)(nil)
	_ transform.StorageRangeWriter = (*tracedStorage)(nil)
)

func (s *tracedStorage) ReadRange(id core.TensorID, reg tensor.Region) (*tensor.Tensor, error) {
	sp := s.tr.start(spanReadRange, s.tr.current())
	t, err := s.inner.ReadRange(id, reg)
	var n int64
	if t != nil {
		n = int64(t.NumBytes())
	}
	s.tr.endWith(sp, n)
	return t, err
}

func (s *tracedStorage) ReadRangeInto(id core.TensorID, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	sp := s.tr.start(spanReadRange, s.tr.current())
	n, err := s.inner.ReadRangeInto(id, reg, dst, at)
	s.tr.endWith(sp, n)
	return n, err
}
