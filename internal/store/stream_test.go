package store

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tenplex/internal/tensor"
)

func seqTensor(shape ...int) *tensor.Tensor {
	t := tensor.New(tensor.Float32, shape...)
	t.FillSeq(0, 1)
	return t
}

func TestLocalQueryInto(t *testing.T) {
	fs := NewMemFS()
	l := Local{FS: fs}
	src := seqTensor(8, 6)
	if err := l.Upload("/w", src); err != nil {
		t.Fatal(err)
	}
	reg := tensor.Region{{Lo: 2, Hi: 5}, {Lo: 1, Hi: 4}}
	dst := tensor.New(tensor.Float32, 10, 10)
	at := tensor.Region{{Lo: 4, Hi: 7}, {Lo: 6, Hi: 9}}
	n, err := l.QueryInto("/w", reg, dst, at)
	if err != nil {
		t.Fatal(err)
	}
	if n != reg.NumBytes(tensor.Float32) {
		t.Fatalf("QueryInto wrote %d bytes, want %d", n, reg.NumBytes(tensor.Float32))
	}
	if !dst.Slice(at).Equal(src.Slice(reg)) {
		t.Fatal("QueryInto landed wrong bytes")
	}
	// nil region = whole tensor; nil at = whole destination.
	whole := tensor.New(tensor.Float32, 8, 6)
	if _, err := l.QueryInto("/w", nil, whole, nil); err != nil {
		t.Fatal(err)
	}
	if !whole.Equal(src) {
		t.Fatal("whole-tensor QueryInto mismatch")
	}
	// Shape mismatches are rejected.
	if _, err := l.QueryInto("/w", reg, dst, tensor.Region{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("mismatched destination region accepted")
	}
}

func TestLocalUploadFrom(t *testing.T) {
	l := Local{FS: NewMemFS()}
	src := seqTensor(4, 5)
	if err := l.UploadFrom("/w", src.DType(), src.Shape(), bytes.NewReader(src.Data())); err != nil {
		t.Fatal(err)
	}
	got, err := l.Query("/w", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(src) {
		t.Fatal("UploadFrom round trip mismatch")
	}
	// Short payloads are rejected.
	if err := l.UploadFrom("/short", tensor.Float32, []int{4}, bytes.NewReader(make([]byte, 7))); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestRESTQueryIntoAndUploadFrom(t *testing.T) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}

	src := seqTensor(16, 8)
	if err := c.UploadFrom("/w", src.DType(), src.Shape(), bytes.NewReader(src.Data())); err != nil {
		t.Fatal(err)
	}
	reg := tensor.Region{{Lo: 3, Hi: 9}, {Lo: 2, Hi: 7}}
	dst := tensor.New(tensor.Float32, 20, 20)
	at := tensor.Region{{Lo: 10, Hi: 16}, {Lo: 0, Hi: 5}}
	before := srv.BytesServed()
	n, err := c.QueryInto("/w", reg, dst, at)
	if err != nil {
		t.Fatal(err)
	}
	if n != reg.NumBytes(tensor.Float32) {
		t.Fatalf("QueryInto wrote %d bytes, want %d", n, reg.NumBytes(tensor.Float32))
	}
	if !dst.Slice(at).Equal(src.Slice(reg)) {
		t.Fatal("REST QueryInto landed wrong bytes")
	}
	// The server served only the range (plus the fixed header), not the
	// whole tensor.
	served := srv.BytesServed() - before
	wantServed := int64(tensor.HeaderSize(2)) + reg.NumBytes(tensor.Float32)
	if served != wantServed {
		t.Fatalf("server sent %d bytes for range query, want %d", served, wantServed)
	}
	// dtype mismatches are detected before any scatter.
	bad := tensor.New(tensor.Float64, 6, 5)
	if _, err := c.QueryInto("/w", reg, bad, nil); err == nil || !strings.Contains(err.Error(), "dtype") {
		t.Fatalf("dtype mismatch error = %v", err)
	}
}

func TestClientTimeout(t *testing.T) {
	stall := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer hs.Close()
	defer close(stall)
	c := &Client{Base: hs.URL, HTTP: hs.Client(), Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := c.Query("/w", nil)
	if err == nil {
		t.Fatal("query against stalled server succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v, configured 50ms", d)
	}
}

func TestClientContextCancel(t *testing.T) {
	stall := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer hs.Close()
	defer close(stall)
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.QueryContext(ctx, "/w", nil); err == nil {
		t.Fatal("query with canceled context succeeded")
	}
	// UploadContext honors the context too.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := c.UploadContext(ctx2, "/w", seqTensor(2)); err == nil {
		t.Fatal("upload with canceled context succeeded")
	}
}

func TestServerUploadRejectsMalformedBodies(t *testing.T) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	post := func(body []byte) int {
		resp, err := hs.Client().Post(hs.URL+"/upload?path=/w", "application/x-tenplex-tensor", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	good := seqTensor(2, 3).Encode()
	if code := post(good); code != http.StatusNoContent {
		t.Fatalf("valid upload rejected: %d", code)
	}
	// Trailing bytes (two concatenated tensors) are rejected.
	if code := post(append(append([]byte{}, good...), good...)); code != http.StatusBadRequest {
		t.Fatalf("concatenated tensors accepted: %d", code)
	}
	// A header declaring more payload than the body carries is rejected
	// before the server commits anything.
	short := append([]byte{}, good...)
	short = short[:len(short)-4]
	if code := post(short); code != http.StatusBadRequest {
		t.Fatalf("truncated payload accepted: %d", code)
	}
	// A forged header whose element count overflows is rejected without
	// allocating.
	huge := tensor.EncodeHeader(tensor.Float64, []int{1 << 31, 1 << 31, 1 << 31})
	if code := post(huge); code != http.StatusBadRequest {
		t.Fatalf("overflowing shape accepted: %d", code)
	}
}

func TestServerStreamedQueryMatchesMaterialized(t *testing.T) {
	// The streamed wire encoding of a range must be byte-identical to
	// encoding the materialized slice.
	fs := NewMemFS()
	src := seqTensor(8, 6)
	if err := fs.PutTensor("/w", src); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(NewServer(fs))
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + "/query?path=/w&range=" + "%5B1%3A4%2C2%3A5%5D") // [1:4,2:5]
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := make([]byte, 0)
	buf := make([]byte, 512)
	for {
		n, err := resp.Body.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	want := src.Slice(tensor.Region{{Lo: 1, Hi: 4}, {Lo: 2, Hi: 5}}).Encode()
	if !bytes.Equal(got, want) {
		t.Fatal("streamed range response differs from materialized encoding")
	}
}

func TestMemFSReadRegionInto(t *testing.T) {
	fs := NewMemFS()
	src := seqTensor(6, 6)
	if err := fs.PutTensor("/w", src); err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(tensor.Float32, 3, 3)
	if _, err := fs.ReadRegionInto("/w", tensor.Region{{Lo: 1, Hi: 4}, {Lo: 1, Hi: 4}}, dst, nil); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src.Slice(tensor.Region{{Lo: 1, Hi: 4}, {Lo: 1, Hi: 4}})) {
		t.Fatal("ReadRegionInto mismatch")
	}
	// Out-of-bounds region is rejected.
	if _, err := fs.ReadRegionInto("/w", tensor.Region{{Lo: 0, Hi: 9}, {Lo: 0, Hi: 9}}, dst, nil); err == nil {
		t.Fatal("out-of-bounds region accepted")
	}
	// Blob paths are rejected.
	if err := fs.PutBlob("/b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadRegionInto("/b", nil, dst, nil); err == nil {
		t.Fatal("blob read as tensor accepted")
	}
}

// flakyHandler wraps a handler, failing the first failN requests with
// 500 and counting every request seen.
type flakyHandler struct {
	next  http.Handler
	mu    sync.Mutex
	seen  int
	failN int
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.seen++
	fail := f.seen <= f.failN
	f.mu.Unlock()
	if fail {
		http.Error(w, "injected", http.StatusInternalServerError)
		return
	}
	f.next.ServeHTTP(w, r)
}

func (f *flakyHandler) requests() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

func retryClient(t *testing.T, failN int) (*Client, *flakyHandler, func()) {
	t.Helper()
	fs := NewMemFS()
	if err := fs.PutTensor("/w", seqTensor(4, 4)); err != nil {
		t.Fatal(err)
	}
	fh := &flakyHandler{next: NewServer(fs), failN: failN}
	hs := httptest.NewServer(fh)
	c := &Client{Base: hs.URL, HTTP: hs.Client(),
		Retry: &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond,
			MaxDelay: 4 * time.Millisecond, JitterSeed: 1, Sleep: func(time.Duration) {}}}
	return c, fh, hs.Close
}

func TestClientRetryRecoversFromTransientFailures(t *testing.T) {
	c, fh, done := retryClient(t, 2)
	defer done()
	got, err := c.Query("/w", nil)
	if err != nil {
		t.Fatalf("query through 2 transient 500s failed: %v", err)
	}
	if !got.Equal(seqTensor(4, 4)) {
		t.Fatal("retried query returned wrong tensor")
	}
	if n := fh.requests(); n != 3 {
		t.Fatalf("server saw %d requests, want 3", n)
	}
	st := c.Stats.Snapshot()
	if st.Attempts != 3 || st.Retries != 2 || st.Exhausted != 0 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries / 0 exhausted", st)
	}
}

func TestClientRetryExhaustedError(t *testing.T) {
	c, fh, done := retryClient(t, 1000)
	defer done()
	_, err := c.Query("/w", nil)
	if err == nil {
		t.Fatal("query against permanently failing server succeeded")
	}
	var re *RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("error %T (%v) is not *RetryExhaustedError", err, err)
	}
	if re.Attempts != 4 {
		t.Fatalf("RetryExhaustedError.Attempts = %d, want 4", re.Attempts)
	}
	if re.Unwrap() == nil || !strings.Contains(re.Unwrap().Error(), "500") {
		t.Fatalf("exhausted error does not wrap the last attempt's failure: %v", re.Unwrap())
	}
	if n := fh.requests(); n != 4 {
		t.Fatalf("server saw %d requests, want the full budget of 4", n)
	}
	if st := c.Stats.Snapshot(); st.Exhausted != 1 {
		t.Fatalf("stats = %+v, want 1 exhausted", st)
	}
}

func TestClientNoRetryOnClientError(t *testing.T) {
	c, fh, done := retryClient(t, 0)
	defer done()
	if _, err := c.Query("/missing", nil); err == nil {
		t.Fatal("query for missing path succeeded")
	}
	if n := fh.requests(); n != 1 {
		t.Fatalf("4xx was retried: server saw %d requests", n)
	}
}

// A caller that cancels while its request waits out a backoff gets its
// cancellation back at once, not when the backoff would have ended.
func TestClientCancelInBackoff(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "out of service", http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client(), Retry: &RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Second}}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.QueryContext(ctx, "/w", nil)
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Fatalf("canceled query returned after %v, want under 200ms", took)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: error %v, want context.Canceled", err)
	}
	if st := c.Stats.Snapshot(); st.Attempts != 1 {
		t.Fatalf("stats = %+v, want the one attempt before the backoff", st)
	}
}

func TestClientNonIdempotentOpsSingleAttempt(t *testing.T) {
	c, fh, done := retryClient(t, 1000)
	defer done()
	if err := c.Rename("/a", "/b"); err == nil {
		t.Fatal("rename against failing server succeeded")
	}
	if err := c.Delete("/w"); err == nil {
		t.Fatal("delete against failing server succeeded")
	}
	if n := fh.requests(); n != 2 {
		t.Fatalf("non-idempotent ops retried: server saw %d requests, want 2", n)
	}
	var re *RetryExhaustedError
	if err := c.Rename("/a", "/b"); errors.As(err, &re) {
		t.Fatal("single-attempt op reported RetryExhaustedError")
	}
}

func TestClientUploadRetries(t *testing.T) {
	c, fh, done := retryClient(t, 2)
	defer done()
	src := seqTensor(3, 3)
	if err := c.Upload("/u", src); err != nil {
		t.Fatalf("upload through transient 500s failed: %v", err)
	}
	if n := fh.requests(); n != 3 {
		t.Fatalf("server saw %d requests, want 3", n)
	}
	got, err := c.Query("/u", nil)
	if err != nil || !got.Equal(src) {
		t.Fatalf("uploaded tensor corrupt after retry: %v", err)
	}
}

func TestClientBackoffIsCappedExponential(t *testing.T) {
	var delays []time.Duration
	c := &Client{Base: "http://127.0.0.1:0", // nothing listens: every attempt is a transport error
		Retry: &RetryPolicy{MaxAttempts: 5, BaseDelay: 8 * time.Millisecond,
			MaxDelay: 20 * time.Millisecond, JitterSeed: 7,
			Sleep: func(d time.Duration) { delays = append(delays, d) }}}
	if _, err := c.Query("/w", nil); err == nil {
		t.Fatal("query against dead address succeeded")
	}
	if len(delays) != 4 {
		t.Fatalf("saw %d backoffs, want 4", len(delays))
	}
	steps := []time.Duration{8, 16, 20, 20} // capped at MaxDelay
	for i, d := range delays {
		step := steps[i] * time.Millisecond
		if d < step/2 || d >= step {
			t.Fatalf("backoff %d = %v outside jitter window [%v, %v)", i, d, step/2, step)
		}
	}
}
