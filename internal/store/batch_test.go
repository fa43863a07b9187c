package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tenplex/internal/tensor"
)

// batchFS builds a MemFS holding three distinct 4x4 tensors (distinct
// stored tensors never coalesce, so each maps to its own frame).
func batchFS(t *testing.T) *MemFS {
	t.Helper()
	fs := NewMemFS()
	for i, p := range []string{"/a", "/b", "/c"} {
		tn := tensor.New(tensor.Float32, 4, 4)
		tn.FillSeq(float64(100*i), 1)
		if err := fs.PutTensor(p, tn); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestBatchQueryIntoMatchesPerRange(t *testing.T) {
	fs := NewMemFS()
	src := seqTensor(8, 6)
	if err := fs.PutTensor("/w", src); err != nil {
		t.Fatal(err)
	}
	other := seqTensor(5, 5)
	if err := fs.PutTensor("/o", other); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(NewServer(fs))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}

	type rng struct {
		path string
		reg  tensor.Region
		at   tensor.Region
	}
	rngs := []rng{
		{"/w", tensor.Region{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 6}}, tensor.Region{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 6}}},
		{"/w", tensor.Region{{Lo: 5, Hi: 8}, {Lo: 2, Hi: 5}}, tensor.Region{{Lo: 3, Hi: 6}, {Lo: 0, Hi: 3}}},
		{"/o", nil, tensor.Region{{Lo: 0, Hi: 5}, {Lo: 0, Hi: 5}}},
	}
	batched := tensor.New(tensor.Float32, 8, 6)
	perRange := tensor.New(tensor.Float32, 8, 6)
	batchedO := tensor.New(tensor.Float32, 5, 5)
	perRangeO := tensor.New(tensor.Float32, 5, 5)
	dstFor := func(path string, b bool) *tensor.Tensor {
		if path == "/o" {
			if b {
				return batchedO
			}
			return perRangeO
		}
		if b {
			return batched
		}
		return perRange
	}
	entries := make([]BatchEntry, len(rngs))
	for i, r := range rngs {
		entries[i] = BatchEntry{Path: r.path, Reg: r.reg, Dst: dstFor(r.path, true), At: r.at}
	}
	st, err := c.BatchQueryInto(context.Background(), entries)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range rngs {
		n, err := c.QueryInto(r.path, r.reg, dstFor(r.path, false), r.at)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	if st.Bytes != want {
		t.Fatalf("batch moved %d bytes, per-range moved %d", st.Bytes, want)
	}
	if !batched.Equal(perRange) || !batchedO.Equal(perRangeO) {
		t.Fatal("batched scatter differs from per-range QueryInto")
	}
}

func TestBatchCoalescesAdjacentRanges(t *testing.T) {
	fs := NewMemFS()
	src := seqTensor(8, 6)
	if err := fs.PutTensor("/w", src); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(NewServer(fs))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	dst := tensor.New(tensor.Float32, 8, 6)
	rows := []tensor.Region{
		{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 6}},
		{{Lo: 2, Hi: 5}, {Lo: 0, Hi: 6}},
		{{Lo: 5, Hi: 8}, {Lo: 0, Hi: 6}},
	}
	entries := make([]BatchEntry, len(rows))
	for i, reg := range rows {
		entries[i] = BatchEntry{Path: "/w", Reg: reg, Dst: dst, At: reg}
	}
	st, err := c.BatchQueryInto(context.Background(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 1 || st.Coalesced != 2 {
		t.Fatalf("adjacent row ranges produced %d frames / %d coalesced, want 1 / 2", st.Frames, st.Coalesced)
	}
	if !dst.Equal(src) {
		t.Fatal("coalesced batch landed wrong bytes")
	}
}

// A server without /batch is an error like a missing endpoint anywhere
// else in the protocol: one POST, a non-retryable status error that
// names it, and never a silent per-range slow path or a probe.
func TestBatchAgainstServerWithoutBatchFails(t *testing.T) {
	inner := NewServer(batchFS(t))
	var mu sync.Mutex
	reqs := map[string]int{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		if r.URL.Path == "/batch" {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client(),
		Retry: &RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}}
	st, err := c.BatchQueryInto(context.Background(), []BatchEntry{
		{Path: "/a", Dst: tensor.New(tensor.Float32, 4, 4)},
		{Path: "/b", Dst: tensor.New(tensor.Float32, 4, 4)},
	})
	if err == nil || !strings.Contains(err.Error(), "POST /batch") || !strings.Contains(err.Error(), "404") {
		t.Fatalf("batch against a server without /batch returned %v, want a 404 naming POST /batch", err)
	}
	var re *RetryExhaustedError
	if retryable(err) || errors.As(err, &re) {
		t.Fatalf("missing endpoint classified as retryable: %v", err)
	}
	if st.Attempts != 1 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want one attempt and no bytes", st)
	}
	if len(reqs) != 1 || reqs["POST /batch"] != 1 {
		t.Fatalf("server saw %v, want exactly one POST /batch", reqs)
	}
}

// The client only accepts checksummed frame streams: a response whose
// stream header lacks the CRC flag is refused outright — it is a
// protocol violation, not damage in flight, so it is not re-requested.
func TestBatchRejectsStreamWithoutChecksums(t *testing.T) {
	payload := make([]byte, 64)
	batches := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		batches++
		_, _ = w.Write(tensor.AppendFrameStreamHeader(nil, 0))
		_, _ = w.Write(tensor.AppendFrameHeader(nil, tensor.FrameHeader{Index: 0, Count: 1, Length: uint64(len(payload))}))
		_, _ = w.Write(payload)
		_, _ = w.Write(tensor.AppendEndFrame(nil))
	}))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client(), Retry: testRetryPolicy()}
	dst := tensor.New(tensor.Float32, 4, 4)
	dst.FillSeq(1, 1)
	want := dst.Clone()
	_, err := c.BatchQueryInto(context.Background(), []BatchEntry{{Path: "/a", Dst: dst}})
	if err == nil || !strings.Contains(err.Error(), "without checksums") {
		t.Fatalf("unchecksummed stream returned %v, want a refusal", err)
	}
	if batches != 1 {
		t.Fatalf("server saw %d /batch requests, want 1 (a protocol violation is not retried)", batches)
	}
	if !dst.Equal(want) {
		t.Fatal("refused stream still wrote into the destination")
	}
}

// tamperHandler wraps a Server, records the entry paths of every /batch
// request, and applies a ResponseWriter wrapper to the first tamperN
// responses whose URL path matches match.
type tamperHandler struct {
	next    http.Handler
	match   string
	tamperN int
	wrap    func(http.ResponseWriter) http.ResponseWriter

	mu      sync.Mutex
	matched int
	batches [][]string
}

func (h *tamperHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/batch" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if entries, re := decodeBatchBytes(body); re == nil {
			paths := make([]string, len(entries))
			for i, e := range entries {
				paths[i] = e.path
			}
			h.mu.Lock()
			h.batches = append(h.batches, paths)
			h.mu.Unlock()
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	if r.URL.Path == h.match {
		h.mu.Lock()
		h.matched++
		tamper := h.matched <= h.tamperN
		h.mu.Unlock()
		if tamper {
			w = h.wrap(w)
		}
	}
	h.next.ServeHTTP(w, r)
}

func (h *tamperHandler) batchRequests() [][]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([][]string(nil), h.batches...)
}

// cutWriter forwards limit body bytes, flushes them to the wire, then
// aborts the connection — a server dying mid-stream.
type cutWriter struct {
	http.ResponseWriter
	remain int64
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if int64(len(p)) <= w.remain {
		w.remain -= int64(len(p))
		return w.ResponseWriter.Write(p)
	}
	w.ResponseWriter.Write(p[:w.remain])
	w.remain = 0
	w.ResponseWriter.(http.Flusher).Flush()
	panic(http.ErrAbortHandler)
}

// corruptWriter flips one body byte at offset off — damage in flight.
type corruptWriter struct {
	http.ResponseWriter
	off, pos int64
}

func (w *corruptWriter) Write(p []byte) (int, error) {
	if w.off >= w.pos && w.off < w.pos+int64(len(p)) {
		q := append([]byte(nil), p...)
		q[w.off-w.pos] ^= 0xff
		p = q
	}
	w.pos += int64(len(p))
	return w.ResponseWriter.Write(p)
}

func testRetryPolicy() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond,
		MaxDelay: 4 * time.Millisecond, JitterSeed: 1, Sleep: func(time.Duration) {}}
}

// Per-entry frame cost for a whole 4x4 float32 tensor with CRC on.
const frame4x4 = tensor.FrameHeaderSize + 64 + tensor.FrameCRCSize

func TestBatchRetriesOnlyUnreceivedEntries(t *testing.T) {
	fs := batchFS(t)
	// Cut the first batch response right after the first complete frame:
	// entry /a arrives verified, /b and /c are lost with the connection.
	th := &tamperHandler{next: NewServer(fs), match: "/batch", tamperN: 1,
		wrap: func(w http.ResponseWriter) http.ResponseWriter {
			return &cutWriter{ResponseWriter: w, remain: tensor.FrameStreamHeaderSize + frame4x4}
		}}
	hs := httptest.NewServer(th)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client(), Retry: testRetryPolicy()}
	dsts := make([]*tensor.Tensor, 3)
	entries := make([]BatchEntry, 3)
	paths := []string{"/a", "/b", "/c"}
	for i, p := range paths {
		dsts[i] = tensor.New(tensor.Float32, 4, 4)
		entries[i] = BatchEntry{Path: p, Dst: dsts[i]}
	}
	st, err := c.BatchQueryInto(context.Background(), entries)
	if err != nil {
		t.Fatalf("batch through one mid-stream death failed: %v", err)
	}
	if st.Attempts != 2 {
		t.Fatalf("batch took %d attempts, want 2", st.Attempts)
	}
	reqs := th.batchRequests()
	if len(reqs) != 2 {
		t.Fatalf("server saw %d batch requests, want 2", len(reqs))
	}
	if len(reqs[0]) != 3 {
		t.Fatalf("first attempt requested %v, want all three entries", reqs[0])
	}
	// The retry re-requests ONLY the entries whose frames were lost.
	if len(reqs[1]) != 2 || reqs[1][0] != "/b" || reqs[1][1] != "/c" {
		t.Fatalf("retry requested %v, want [/b /c]", reqs[1])
	}
	for i, p := range paths {
		want, err := fs.GetTensor(p)
		if err != nil {
			t.Fatal(err)
		}
		if !dsts[i].Equal(want) {
			t.Fatalf("entry %d (%s) landed wrong bytes after partial retry", i, p)
		}
	}
}

func TestBatchMidFrameTruncationIsTypedAndRetryable(t *testing.T) {
	fs := batchFS(t)
	wrap := func(w http.ResponseWriter) http.ResponseWriter {
		// Cut inside the first frame's payload.
		return &cutWriter{ResponseWriter: w, remain: tensor.FrameStreamHeaderSize + tensor.FrameHeaderSize + 24}
	}
	entriesFor := func(dsts []*tensor.Tensor) []BatchEntry {
		entries := make([]BatchEntry, len(dsts))
		for i, p := range []string{"/a", "/b"} {
			dsts[i] = tensor.New(tensor.Float32, 4, 4)
			entries[i] = BatchEntry{Path: p, Dst: dsts[i]}
		}
		return entries
	}

	// Without a retry policy the truncation surfaces as a typed,
	// retryable error — not a silent short scatter.
	th := &tamperHandler{next: NewServer(fs), match: "/batch", tamperN: 1, wrap: wrap}
	hs := httptest.NewServer(th)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	dsts := make([]*tensor.Tensor, 2)
	_, err := c.BatchQueryInto(context.Background(), entriesFor(dsts))
	if err == nil {
		t.Fatal("mid-frame truncation went unnoticed")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error = %v, not io.ErrUnexpectedEOF", err)
	}
	if !retryable(err) {
		t.Fatalf("truncation error %v classified as non-retryable", err)
	}

	// Under the policy the same failure heals on the second attempt.
	th2 := &tamperHandler{next: NewServer(fs), match: "/batch", tamperN: 1, wrap: wrap}
	hs2 := httptest.NewServer(th2)
	defer hs2.Close()
	c2 := &Client{Base: hs2.URL, HTTP: hs2.Client(), Retry: testRetryPolicy()}
	dsts2 := make([]*tensor.Tensor, 2)
	entries := entriesFor(dsts2)
	st, err := c2.BatchQueryInto(context.Background(), entries)
	if err != nil {
		t.Fatalf("batch through mid-frame truncation failed under retry: %v", err)
	}
	if st.Attempts != 2 {
		t.Fatalf("batch took %d attempts, want 2", st.Attempts)
	}
	for i, p := range []string{"/a", "/b"} {
		want, _ := fs.GetTensor(p)
		if !dsts2[i].Equal(want) {
			t.Fatalf("entry %d (%s) landed wrong bytes", i, p)
		}
	}
}

func TestBatchChecksumMismatchRejectedAndRetried(t *testing.T) {
	fs := batchFS(t)
	wrap := func(w http.ResponseWriter) http.ResponseWriter {
		// Flip a byte inside the first frame's payload; the CRC trailer
		// no longer matches.
		return &corruptWriter{ResponseWriter: w, off: tensor.FrameStreamHeaderSize + tensor.FrameHeaderSize + 7}
	}
	// Corrupt once: the client rejects the frame, re-requests it, and the
	// clean second attempt wins.
	th := &tamperHandler{next: NewServer(fs), match: "/batch", tamperN: 1, wrap: wrap}
	hs := httptest.NewServer(th)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client(), Retry: testRetryPolicy()}
	dst := tensor.New(tensor.Float32, 4, 4)
	st, err := c.BatchQueryInto(context.Background(), []BatchEntry{{Path: "/a", Dst: dst}})
	if err != nil {
		t.Fatalf("batch through one corrupt frame failed: %v", err)
	}
	if st.Attempts != 2 {
		t.Fatalf("batch took %d attempts, want 2", st.Attempts)
	}
	want, _ := fs.GetTensor("/a")
	if !dst.Equal(want) {
		t.Fatal("retried frame landed wrong bytes")
	}

	// Corrupt forever: the budget exhausts and the ChecksumError is
	// visible through the wrapper.
	th2 := &tamperHandler{next: NewServer(fs), match: "/batch", tamperN: 1 << 30, wrap: wrap}
	hs2 := httptest.NewServer(th2)
	defer hs2.Close()
	c2 := &Client{Base: hs2.URL, HTTP: hs2.Client(), Retry: testRetryPolicy()}
	_, err = c2.BatchQueryInto(context.Background(), []BatchEntry{{Path: "/a", Dst: tensor.New(tensor.Float32, 4, 4)}})
	if err == nil {
		t.Fatal("permanently corrupt stream accepted")
	}
	var ce *ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v) does not wrap ChecksumError", err, err)
	}
	var re *RetryExhaustedError
	if !errors.As(err, &re) || re.Attempts != 4 {
		t.Fatalf("error %v is not a 4-attempt RetryExhaustedError", err)
	}
}

func TestBatchContextCancel(t *testing.T) {
	stall := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer hs.Close()
	defer close(stall)
	c := &Client{Base: hs.URL, HTTP: hs.Client(), Retry: testRetryPolicy()}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.BatchQueryInto(ctx, []BatchEntry{{Path: "/a", Dst: tensor.New(tensor.Float32, 4, 4)}})
	if err == nil {
		t.Fatal("batch against stalled server with canceled context succeeded")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

func TestBatchRejectsMismatchedEntries(t *testing.T) {
	hs := httptest.NewServer(NewServer(NewMemFS()))
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	if _, err := c.BatchQueryInto(context.Background(), []BatchEntry{{Path: "/a"}}); err == nil {
		t.Fatal("nil destination accepted")
	}
	dst := tensor.New(tensor.Float32, 4, 4)
	bad := []BatchEntry{{Path: "/a", Reg: tensor.Region{{Lo: 0, Hi: 2}}, Dst: dst,
		At: tensor.Region{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 4}}}}
	if _, err := c.BatchQueryInto(context.Background(), bad); err == nil {
		t.Fatal("mismatched source/destination regions accepted")
	}
}

func TestQueryIntoMidStreamDeathIsTypedAndRetried(t *testing.T) {
	fs := NewMemFS()
	src := seqTensor(8, 8)
	if err := fs.PutTensor("/w", src); err != nil {
		t.Fatal(err)
	}
	wrap := func(w http.ResponseWriter) http.ResponseWriter {
		// Cut inside the payload, after the tensor wire header.
		return &cutWriter{ResponseWriter: w, remain: int64(tensor.HeaderSize(2)) + 40}
	}
	// Without retries: a typed truncation error, never a silent short
	// scatter.
	th := &tamperHandler{next: NewServer(fs), match: "/query", tamperN: 1, wrap: wrap}
	hs := httptest.NewServer(th)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	dst := tensor.New(tensor.Float32, 8, 8)
	_, err := c.QueryInto("/w", nil, dst, nil)
	if err == nil {
		t.Fatal("mid-stream death went unnoticed")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error = %v, not io.ErrUnexpectedEOF", err)
	}

	// Under the policy the second attempt repairs the scatter in place.
	th2 := &tamperHandler{next: NewServer(fs), match: "/query", tamperN: 1, wrap: wrap}
	hs2 := httptest.NewServer(th2)
	defer hs2.Close()
	c2 := &Client{Base: hs2.URL, HTTP: hs2.Client(), Retry: testRetryPolicy()}
	dst2 := tensor.New(tensor.Float32, 8, 8)
	if _, err := c2.QueryInto("/w", nil, dst2, nil); err != nil {
		t.Fatalf("QueryInto through mid-stream death failed under retry: %v", err)
	}
	if !dst2.Equal(src) {
		t.Fatal("retried QueryInto landed wrong bytes")
	}
	if st := c2.Stats.Snapshot(); st.Retries != 1 {
		t.Fatalf("stats = %+v, want exactly 1 retry", st)
	}
}

// decodeBatchBytes runs the /batch request decoder over a body held in
// memory.
func decodeBatchBytes(body []byte) ([]batchRequestEntry, *requestError) {
	d := tensor.NewRequestReader()
	d.Reset(bytes.NewReader(body))
	return decodeBatchRequest(d)
}

// batchBody is the tests' own encoder of a /batch request: the layout
// written out a second time, independent of the client's.
func batchBody(entries ...batchRequestEntry) []byte {
	buf := tensor.AppendRequestHeader(nil, tensor.RequestBatch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = tensor.AppendRegion(tensor.AppendString(buf, e.path), e.reg)
	}
	return buf
}

// rawRegion encodes lo,hi pairs as a region without the checks
// tensor.Region's own encoder would need them to pass.
func rawRegion(bounds ...uint64) []byte {
	buf := []byte{uint8(len(bounds) / 2)}
	for _, b := range bounds {
		buf = binary.LittleEndian.AppendUint64(buf, b)
	}
	return buf
}

// batchHead is a /batch request up to and including its entry count and
// the path of the first entry; the entry's region is the caller's.
func batchHead(count uint32, path string) []byte {
	buf := tensor.AppendRequestHeader(nil, tensor.RequestBatch)
	buf = binary.LittleEndian.AppendUint32(buf, count)
	return tensor.AppendString(buf, path)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// malformedBatch lists /batch request bodies the server must refuse
// before the first frame, with the status it answers; the fuzz target
// starts from them.
var malformedBatch = []struct {
	name string
	body []byte
	code int
}{
	{"no body", nil, 400},
	{"json", []byte(`{"entries":[{"path":"/a"}]}`), 400},
	{"bad magic", append([]byte("XXXX"), batchBody(batchRequestEntry{path: "/a"})[4:]...), 400},
	{"unknown version", cat([]byte("QLPT"), []byte{9, 0, 1, 0, 1, 0, 0, 0}, batchBody(batchRequestEntry{path: "/a"})[12:]), 400},
	{"assemble header", cat(tensor.AppendRequestHeader(nil, tensor.RequestAssemble), batchBody(batchRequestEntry{path: "/a"})[8:]), 400},
	{"header only", tensor.AppendRequestHeader(nil, tensor.RequestBatch), 400},
	{"empty", batchBody(), 400},
	{"fewer entries than declared", cat(batchHead(2, "/a"), rawRegion()), 400},
	{"more entries than declared", cat(batchHead(1, "/a"), rawRegion(), tensor.AppendString(nil, "/b"), rawRegion()), 400},
	{"one trailing byte", append(batchBody(batchRequestEntry{path: "/a"}), 0), 400},
	{"cut inside a path", batchHead(1, "/a")[:15], 400},
	{"cut inside a region", cat(batchHead(1, "/a"), rawRegion(0, 2, 0, 4)[:20]), 400},
	{"path longer than its cap", cat(batchHead(1, "")[:12], binary.LittleEndian.AppendUint32(nil, maxPathBytes+1), make([]byte, maxPathBytes+1), rawRegion()), 400},
	{"missing tensor", batchBody(batchRequestEntry{path: "/absent"}), 404},
	{"empty path", batchBody(batchRequestEntry{path: ""}), 404},
	{"dot path", batchBody(batchRequestEntry{path: "/a/../b"}), 404},
	{"range rank", cat(batchHead(1, "/a"), rawRegion(0, 2)), 400},
	{"range rank past the cap", cat(batchHead(1, "/a"), rawRegion(make([]uint64, 34)...)), 400},
	{"range out of bounds", cat(batchHead(1, "/a"), rawRegion(0, 5, 0, 4)), 400},
	{"inverted range", cat(batchHead(1, "/a"), rawRegion(3, 1, 0, 4)), 400},
	{"empty range", cat(batchHead(1, "/a"), rawRegion(2, 2, 0, 4)), 400},
	{"negative range", cat(batchHead(1, "/a"), rawRegion(1<<64-1, 2, 0, 4)), 400},
	{"range past MaxInt64", cat(batchHead(1, "/a"), rawRegion(0, 1<<63, 0, 4)), 400},
	{"too many entries", batchHead(maxBatchEntries+1, "/a"), 400},
}

func postBatch(srv http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
	return rec
}

func TestBatchRejectsMalformedRequests(t *testing.T) {
	srv := NewServer(batchFS(t))
	for _, c := range malformedBatch {
		if rec := postBatch(srv, c.body); rec.Code != c.code {
			t.Errorf("%s: status %d (%s), want %d", c.name, rec.Code, strings.TrimSpace(rec.Body.String()), c.code)
		}
	}
	// A body over the limit is refused as that, by name — not cut at the
	// limit and then reported as malformed. Every entry is well-formed, so
	// only the limit stops the decoder.
	long := batchRequestEntry{path: "/" + strings.Repeat("a", 300)}
	big := make([]batchRequestEntry, maxBatchEntries)
	for i := range big {
		big[i] = long
	}
	body := batchBody(big...)
	if len(body) <= maxBatchRequestBytes {
		t.Fatalf("oversized body is only %d bytes", len(body))
	}
	rec := postBatch(srv, body)
	if want := fmt.Sprint(maxBatchRequestBytes); rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("oversized body: status %d (%s), want 413 naming %s", rec.Code, strings.TrimSpace(rec.Body.String()), want)
	}
	if n := srv.BytesServed(); n != 0 {
		t.Fatalf("refused batches served %d bytes", n)
	}
}

// checkDecodedBody holds an accepted request body to what both request
// decoders promise: it re-encodes to exactly the bytes it was decoded
// from (a request has one encoding, and the decoder consumed all of it),
// and no strict prefix of it is a request.
func checkDecodedBody(t *testing.T, body, reencoded []byte, decodes func([]byte) bool) {
	t.Helper()
	if !bytes.Equal(reencoded, body) {
		t.Fatalf("accepted body of %d bytes re-encodes to %d different bytes\n in: %x\nout: %x", len(body), len(reencoded), body, reencoded)
	}
	for n := 0; n < len(body); n++ {
		if decodes(body[:n]) {
			t.Fatalf("prefix of %d bytes of an accepted body of %d was accepted too", n, len(body))
		}
	}
}

// allocatedBy returns the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A count or a length a body declares is not trusted with memory: it is
// checked against its cap first, and past that the decoder's slices grow
// with the entries that actually arrive.
func TestBatchDecoderDoesNotAllocateFromDeclaredSizes(t *testing.T) {
	for name, body := range map[string][]byte{
		"2^32-1 entries":         batchHead(1<<32-1, "/a"),
		"the most entries":       batchHead(maxBatchEntries, "/a"),
		"a path of 2^32-1 bytes": cat(batchHead(1, "")[:12], binary.LittleEndian.AppendUint32(nil, 1<<32-1), []byte("/a")),
	} {
		var re *requestError
		if n := allocatedBy(func() { _, re = decodeBatchBytes(body) }); n > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes before failing", name, n)
		}
		if re == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzBatchRequest throws arbitrary bodies at POST /batch. Whatever the
// decoder accepts is the one encoding of what it decoded, and nothing
// shorter is; whatever the server then accepts it must answer with a
// well-formed, checksummed frame stream of exactly the length it
// announced; everything else is a 4xx.
func FuzzBatchRequest(f *testing.F) {
	for _, c := range malformedBatch {
		f.Add(c.body)
	}
	f.Add(batchBody(
		batchRequestEntry{path: "/a", reg: tensor.Region{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 4}}},
		batchRequestEntry{path: "/a", reg: tensor.Region{{Lo: 1, Hi: 2}, {Lo: 0, Hi: 4}}},
		batchRequestEntry{path: "/b"}))
	f.Add(batchBody(batchRequestEntry{path: "/b", reg: tensor.Region{{Lo: 1, Hi: 3}, {Lo: 0, Hi: 4}}}))
	fs := NewMemFS()
	for _, p := range []string{"/a", "/b"} {
		if err := fs.PutTensor(p, seqTensor(4, 4)); err != nil {
			f.Fatal(err)
		}
	}
	srv := NewServer(fs)
	f.Fuzz(func(t *testing.T, body []byte) {
		if entries, re := decodeBatchBytes(body); re == nil {
			checkDecodedBody(t, body, batchBody(entries...), func(b []byte) bool {
				_, re := decodeBatchBytes(b)
				return re == nil
			})
		} else if re.code/100 != 4 {
			t.Fatalf("decoder failed with %d (%s), want a 4xx", re.code, re.msg)
		}
		rec := postBatch(srv, body)
		if rec.Code/100 == 4 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
		if want := rec.Header().Get("Content-Length"); want != fmt.Sprint(rec.Body.Len()) {
			t.Fatalf("announced %s bytes, wrote %d", want, rec.Body.Len())
		}
		flags, err := tensor.DecodeFrameStreamHeader(rec.Body)
		if err != nil {
			t.Fatal(err)
		}
		if flags&tensor.FrameFlagCRC == 0 {
			t.Fatalf("stream flags %#x: frames carry no checksums", flags)
		}
		for {
			h, err := tensor.DecodeFrameHeaderFrom(rec.Body)
			if err != nil {
				t.Fatal(err)
			}
			if h.End() {
				break
			}
			skip := int(h.Length) + tensor.FrameCRCSize
			if len(rec.Body.Next(skip)) != skip {
				t.Fatalf("frame of %d bytes truncated", h.Length)
			}
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("%d bytes after the end frame", rec.Body.Len())
		}
	})
}
