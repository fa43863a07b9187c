package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tenplex/internal/tensor"
)

// rawUploadItem is one item of a hand-built /upload-batch body. The
// frame header says what the payload is; the shape is the caller's to
// get wrong.
type rawUploadItem struct {
	path    string
	dt      tensor.DType
	shape   []uint64
	payload []byte
}

// uploadBatchHead is an /upload-batch request up to and including its
// item count.
func uploadBatchHead(count uint32) []byte {
	buf := tensor.AppendRequestHeader(nil, tensor.RequestUpload)
	return binary.LittleEndian.AppendUint32(buf, count)
}

// rawUploadBody is the tests' own encoder of an /upload-batch request:
// the layout written out a second time, independent of the client's.
func rawUploadBody(items ...rawUploadItem) []byte {
	buf := uploadBatchHead(uint32(len(items)))
	for i, it := range items {
		buf = tensor.AppendString(buf, it.path)
		buf = append(buf, uint8(it.dt), uint8(len(it.shape)))
		for _, d := range it.shape {
			buf = binary.LittleEndian.AppendUint64(buf, d)
		}
		buf = tensor.AppendFrameHeader(buf, tensor.FrameHeader{Index: uint32(i), Count: 1, Length: uint64(len(it.payload))})
		buf = append(buf, it.payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(it.payload, castagnoli))
	}
	return buf
}

func rawItemOf(path string, t *tensor.Tensor) rawUploadItem {
	it := rawUploadItem{path: path, dt: t.DType(), payload: t.Data()}
	for _, d := range t.Shape() {
		it.shape = append(it.shape, uint64(d))
	}
	return it
}

// twoItemBatch is a valid request: two 4x4 tensors, 64 payload bytes
// each.
func twoItemBatch() []byte {
	b := seqTensor(4, 4)
	b.FillSeq(100, 1)
	return rawUploadBody(rawItemOf("/dir/a", seqTensor(4, 4)), rawItemOf("/dir/b", b))
}

// flip returns body with the byte at off (from the end when negative)
// inverted.
func flip(body []byte, off int) []byte {
	out := append([]byte(nil), body...)
	if off < 0 {
		off += len(out)
	}
	out[off] ^= 0xff
	return out
}

// malformedUpload lists /upload-batch bodies the server must refuse
// without storing anything, with the status it answers; the fuzz target
// starts from them.
var malformedUpload = []struct {
	name string
	body []byte
	code int
}{
	{"no body", nil, 400},
	{"batch header", cat(tensor.AppendRequestHeader(nil, tensor.RequestBatch), twoItemBatch()[8:]), 400},
	{"header only", tensor.AppendRequestHeader(nil, tensor.RequestUpload), 400},
	{"zero items", uploadBatchHead(0), 400},
	{"too many items", uploadBatchHead(maxUploadBatchItems + 1), 413},
	{"fewer items than declared", cat(uploadBatchHead(3), twoItemBatch()[uploadBatchHeadSize:]), 400},
	{"more items than declared", cat(uploadBatchHead(1), twoItemBatch()[uploadBatchHeadSize:]), 400},
	{"empty path", rawUploadBody(rawItemOf("", seqTensor(2))), 400},
	{"path longer than its cap", rawUploadBody(rawItemOf("/"+strings.Repeat("a", maxPathBytes), seqTensor(2))), 400},
	{"invalid dtype", rawUploadBody(rawUploadItem{path: "/a", dt: 0x30, shape: []uint64{2}, payload: make([]byte, 8)}), 400},
	{"rank 17", rawUploadBody(rawUploadItem{path: "/a", dt: tensor.Float32, shape: make([]uint64, 17)}), 400},
	{"zero dimension", rawUploadBody(rawUploadItem{path: "/a", dt: tensor.Float32, shape: []uint64{4, 0}}), 400},
	{"dimension past MaxInt64", rawUploadBody(rawUploadItem{path: "/a", dt: tensor.Float32, shape: []uint64{1 << 63}}), 400},
	{"shape over the tensor cap", rawUploadBody(rawUploadItem{path: "/a", dt: tensor.Float64, shape: []uint64{1 << 20, 1 << 20}}), 413},
	{"frame shorter than the shape", rawUploadBody(rawUploadItem{path: "/a", dt: tensor.Float32, shape: []uint64{4, 4}, payload: make([]byte, 60)}), 400},
	{"frame longer than the shape", rawUploadBody(rawUploadItem{path: "/a", dt: tensor.Float32, shape: []uint64{4, 4}, payload: make([]byte, 68)}), 400},
	{"frame index", flip(twoItemBatch(), uploadBatchHeadSize+4+len("/dir/a")+2+16), 400},
	{"frame count", flip(twoItemBatch(), uploadBatchHeadSize+4+len("/dir/a")+2+16+4), 400},
	{"bad crc", flip(twoItemBatch(), -1), 422},
	{"damaged payload", flip(twoItemBatch(), -10), 422},
	{"damaged first payload", flip(twoItemBatch(), uploadBatchHeadSize+4+len("/dir/a")+2+16+tensor.FrameHeaderSize+5), 422},
	{"truncated trailer", twoItemBatch()[:len(twoItemBatch())-2], 400},
	{"one trailing byte", append(twoItemBatch(), 0), 400},
	{"duplicate path", rawUploadBody(rawItemOf("/a", seqTensor(2)), rawItemOf("/a", seqTensor(2))), 400},
}

// postUpload sends body to /upload-batch announcing its true length.
func postUpload(srv http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/upload-batch", bytes.NewReader(body)))
	return rec
}

func decodeUploadBytes(body []byte) ([]uploadedTensor, *requestError) {
	d := tensor.NewRequestReader()
	d.Reset(bytes.NewReader(body))
	return decodeUploadBatch(d, int64(len(body)), NewMemFS())
}

// encodeUploaded runs decoded tensors back through the client's encoder.
func encodeUploaded(t testing.TB, items []uploadedTensor) []byte {
	t.Helper()
	up := make([]UploadItem, len(items))
	for i, it := range items {
		up[i] = UploadItem{Path: it.path, View: it.t.FullView()}
	}
	body, length, err := batchUpload(up)
	if err != nil {
		t.Fatalf("accepted request does not encode: %v", err)
	}
	out, err := io.ReadAll(body)
	if err != nil || int64(len(out)) != length {
		t.Fatalf("encoder announced %d bytes and wrote %d (err %v)", length, len(out), err)
	}
	return out
}

// storedNothing fails the test if the store holds anything at all.
func storedNothing(t testing.TB, fs *MemFS, what string) {
	t.Helper()
	if names, err := fs.List("/"); err != nil || len(names) != 0 {
		t.Fatalf("%s: store holds %v (err %v), want nothing", what, names, err)
	}
}

// conflicting lists pairs of paths that cannot both be stored, and the
// path a store holds already that makes a batch fail against its tree.
var conflicting = map[string][]string{
	"under a file the batch stores":     {"/a", "/a/b"},
	"over a directory the batch makes":  {"/a/b/c", "/a/b"},
	"under a file the store holds":      {"/ok", "/held/b"},
	"over a directory the store holds":  {"/ok", "/dir"},
	"deep under a file the batch holds": {"/a/b", "/a/b/c/d"},
}

// placeHeld stores what the conflicting batches meet in the tree: a file
// at /held and a directory at /dir.
func placeHeld(t *testing.T, fs *MemFS) {
	t.Helper()
	if err := fs.PutTensor("/held", seqTensor(2)); err != nil {
		t.Fatal(err)
	}
	if err := fs.PutTensor("/dir/x", seqTensor(2)); err != nil {
		t.Fatal(err)
	}
}

// holdsOnlyPlaced fails the test unless the store holds what placeHeld
// put there and nothing else, and its free list every buffer of a
// refused request.
func holdsOnlyPlaced(t *testing.T, fs *MemFS, what string, freed int64) {
	t.Helper()
	names, err := fs.List("/")
	if err != nil || !slices.Equal(names, []string{"dir/", "held"}) {
		t.Fatalf("%s: store holds %v (err %v), want [dir/ held]", what, names, err)
	}
	if sub, err := fs.List("/dir"); err != nil || !slices.Equal(sub, []string{"x"}) {
		t.Fatalf("%s: /dir holds %v (err %v), want [x]", what, sub, err)
	}
	if fs.free.bytes != freed {
		t.Fatalf("%s: free list holds %d bytes, want the request's %d", what, fs.free.bytes, freed)
	}
}

// An /upload-batch is stored whole or not at all: a batch whose later
// item cannot be stored answers 400, keeps none of its items, and hands
// every buffer it decoded back to the store.
func TestUploadBatchAllOrNone(t *testing.T) {
	for name, paths := range conflicting {
		srv := NewServer(NewMemFS())
		placeHeld(t, srv.FS)
		body := rawUploadBody(rawItemOf(paths[0], seqTensor(2)), rawItemOf(paths[1], seqTensor(3)))
		if rec := postUpload(srv, body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		holdsOnlyPlaced(t, srv.FS, name, 5*4)
		if n := srv.BytesReceived(); n != 0 {
			t.Fatalf("%s: %d bytes counted as received for a refused batch", name, n)
		}
	}
}

func TestUploadBatchRejectsMalformedRequests(t *testing.T) {
	for _, c := range malformedUpload {
		srv := NewServer(NewMemFS())
		if rec := postUpload(srv, c.body); rec.Code != c.code {
			t.Errorf("%s: status %d (%s), want %d", c.name, rec.Code, strings.TrimSpace(rec.Body.String()), c.code)
		}
		storedNothing(t, srv.FS, c.name)
		if n := srv.BytesReceived(); n != 0 {
			t.Errorf("%s: refused batch counted %d bytes received", c.name, n)
		}
	}

	srv := NewServer(NewMemFS())
	// No Content-Length: nothing bounds what the items may declare.
	req := httptest.NewRequest(http.MethodPost, "/upload-batch", struct{ io.Reader }{bytes.NewReader(twoItemBatch())})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusLengthRequired {
		t.Errorf("body of unknown length: status %d, want 411", rec.Code)
	}
	// A length over the cap is refused as that before a byte is read.
	req = httptest.NewRequest(http.MethodPost, "/upload-batch", bytes.NewReader(twoItemBatch()))
	req.ContentLength = maxUploadBatchBytes + 1
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if want := fmt.Sprint(int64(maxUploadBatchBytes)); rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("announced over the cap: status %d (%s), want 413 naming %s", rec.Code, strings.TrimSpace(rec.Body.String()), want)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/upload-batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
	storedNothing(t, srv.FS, "refused requests")
}

// A body cut anywhere stores nothing, whether the client announced the
// short length (an item then declares more than was announced) or the
// full one and died on the way.
func TestUploadBatchTruncatedAnywhereStoresNothing(t *testing.T) {
	whole := twoItemBatch()
	srv := NewServer(NewMemFS())
	for n := 0; n < len(whole); n++ {
		if rec := postUpload(srv, whole[:n]); rec.Code != http.StatusBadRequest {
			t.Fatalf("cut at %d of %d, short length announced: status %d (%s), want 400",
				n, len(whole), rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		req := httptest.NewRequest(http.MethodPost, "/upload-batch", bytes.NewReader(whole[:n]))
		req.ContentLength = int64(len(whole))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("cut at %d of %d, full length announced: status %d (%s), want 400",
				n, len(whole), rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		storedNothing(t, srv.FS, fmt.Sprintf("cut at %d", n))
	}
	if rec := postUpload(srv, whole); rec.Code != http.StatusNoContent {
		t.Fatalf("the whole body: status %d (%s), want 204", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if names, _ := srv.FS.List("/dir"); len(names) != 2 {
		t.Fatalf("the whole body stored %v, want two tensors", names)
	}
}

// What a request declares is not trusted with memory: a shape is checked
// against its cap and against what the client announced it would send
// before a tensor is sized from it.
func TestUploadBatchDoesNotAllocateFromDeclaredSizes(t *testing.T) {
	gib := rawUploadBody(rawUploadItem{path: "/a", dt: tensor.Float32, shape: []uint64{1 << 28}})
	binary.LittleEndian.PutUint64(gib[len(gib)-tensor.FrameCRCSize-8:], 1<<30) // the frame agrees with the shape
	for name, body := range map[string][]byte{
		"2^32-1 items":            uploadBatchHead(1<<32 - 1),
		"the most items":          cat(uploadBatchHead(maxUploadBatchItems), twoItemBatch()[uploadBatchHeadSize:]),
		"a path of 2^32-1 bytes":  cat(uploadBatchHead(1), binary.LittleEndian.AppendUint32(nil, 1<<32-1), []byte("/a")),
		"1 GiB in a 60-byte body": gib,
	} {
		var re *requestError
		if n := allocatedBy(func() { _, re = decodeUploadBytes(body) }); n > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes before failing", name, n)
		}
		if re == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// uploadNode is a Server on loopback behind an optional wrapper, with a
// count of the requests each endpoint saw.
type uploadNode struct {
	srv  *Server
	hs   *httptest.Server
	mu   sync.Mutex
	reqs map[string]int
}

func newUploadNode(t *testing.T, wrap func(http.Handler) http.Handler) *uploadNode {
	t.Helper()
	n := &uploadNode{srv: NewServer(NewMemFS()), reqs: map[string]int{}}
	var h http.Handler = n.srv
	if wrap != nil {
		h = wrap(h)
	}
	n.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.reqs[r.URL.Path]++
		n.mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(n.hs.Close)
	return n
}

func (n *uploadNode) requests(path string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reqs[path]
}

func (n *uploadNode) client(retry *RetryPolicy) *Client {
	return &Client{Base: n.hs.URL, HTTP: n.hs.Client(), Retry: retry}
}

// uploadSet is a batch over one source tensor: the whole of it, a block
// of rows (contiguous), a block of columns (strided) and a scalar-sized
// corner, which is every way a view's payload can lie in its source.
func uploadSet(src *tensor.Tensor) []UploadItem {
	return []UploadItem{
		{Path: "/m/whole", View: src.FullView()},
		{Path: "/m/rows", View: src.View(tensor.Region{{Lo: 2, Hi: 5}, {Lo: 0, Hi: 6}})},
		{Path: "/m/cols", View: src.View(tensor.Region{{Lo: 0, Hi: 8}, {Lo: 1, Hi: 4}})},
		{Path: "/deep/er/corner", View: src.View(tensor.Region{{Lo: 7, Hi: 8}, {Lo: 5, Hi: 6}})},
	}
}

// materialize copies a view out into a tensor of its own.
func materialize(t *testing.T, v tensor.View) *tensor.Tensor {
	t.Helper()
	out := tensor.New(v.DType(), v.Shape()...)
	if _, err := out.WriteRegion(tensor.FullRegion(v.Shape()), v.Reader()); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkUploadSet(t *testing.T, fs *MemFS, items []UploadItem) {
	t.Helper()
	for _, it := range items {
		got, err := fs.GetTensor(it.Path)
		if err != nil {
			t.Fatalf("%s: %v", it.Path, err)
		}
		if want := materialize(t, it.View); !got.Equal(want) {
			t.Fatalf("%s: stored %v, want %v", it.Path, got, want)
		}
	}
}

// A batch costs one request whatever it carries, stores what uploading
// the same views one at a time stores, and counts the same bytes
// received as they do.
func TestUploadBatchMatchesSingleUploads(t *testing.T) {
	src := seqTensor(8, 6)
	items := uploadSet(src)
	batch, single := newUploadNode(t, nil), newUploadNode(t, nil)
	if err := batch.client(nil).UploadBatch(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	c := single.client(nil)
	for _, it := range items {
		if err := c.UploadFrom(it.Path, it.View.DType(), it.View.Shape(), it.View.Reader()); err != nil {
			t.Fatal(err)
		}
	}
	if b, u := batch.requests("/upload-batch"), batch.requests("/upload"); b != 1 || u != 0 {
		t.Fatalf("batch made %d /upload-batch and %d /upload requests, want 1 and 0", b, u)
	}
	checkUploadSet(t, batch.srv.FS, items)
	checkUploadSet(t, single.srv.FS, items)
	var payload int64
	for _, it := range items {
		payload += int64(it.View.NumBytes())
	}
	got, want := batch.srv.BytesReceived(), single.srv.BytesReceived()
	if got != want || got <= payload || got > payload+int64(len(items))*64 {
		t.Fatalf("batch counted %d bytes received, single uploads %d, payload %d: want equal, and the payload once plus a header each",
			got, want, payload)
	}
	if err := batch.client(nil).UploadBatch(context.Background(), nil); err != nil || batch.requests("/upload-batch") != 1 {
		t.Fatalf("empty batch: error %v, %d requests in all; want no request", err, batch.requests("/upload-batch"))
	}
}

// The client's encoding is the layout the tests write out themselves,
// of exactly the announced length, and replays byte for byte.
func TestUploadBatchBodyIsCanonical(t *testing.T) {
	src := seqTensor(8, 6)
	items := uploadSet(src)
	var raw []rawUploadItem
	for _, it := range items {
		raw = append(raw, rawItemOf(it.Path, materialize(t, it.View)))
	}
	want := rawUploadBody(raw...)
	body, length, err := batchUpload(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*uploadBody{body, body.fresh()} {
		got, err := io.ReadAll(threeBytes{b}) // every section boundary falls inside some Read
		if err != nil || !bytes.Equal(got, want) || int64(len(got)) != length {
			t.Fatalf("body of %d bytes (announced %d, err %v) differs from the layout's %d", len(got), length, err, len(want))
		}
	}
	decoded, re := decodeUploadBytes(want)
	if re != nil {
		t.Fatalf("canonical body refused: %d %s", re.code, re.msg)
	}
	if again := encodeUploaded(t, decoded); !bytes.Equal(again, want) {
		t.Fatal("decode then encode is not the identity")
	}
	over := seqTensor(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	if _, _, err := batchUpload([]UploadItem{{Path: "/r", View: over.FullView()}}); err == nil {
		t.Fatal("rank 17 encoded")
	}
}

// threeBytes reads at most three bytes at a time.
type threeBytes struct{ r io.Reader }

func (r threeBytes) Read(p []byte) (int, error) { return r.r.Read(p[:min(len(p), 3)]) }

// corruptRequests flips one byte at offset off of the body of the first
// n requests to match.
func corruptRequests(match string, n int32, off int64) func(http.Handler) http.Handler {
	var seen atomic.Int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == match && seen.Add(1) <= n {
				r.Body = &corruptReader{ReadCloser: r.Body, off: off}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// corruptReader flips the byte at offset off of what it reads — damage
// in flight, on the way in.
type corruptReader struct {
	io.ReadCloser
	off, pos int64
}

func (c *corruptReader) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	if c.off >= c.pos && c.off < c.pos+int64(n) {
		p[c.off-c.pos] ^= 0xff
	}
	c.pos += int64(n)
	return n, err
}

// A frame damaged on its way in fails its checksum on the server, which
// stores nothing of the batch and says so; a client with a retry budget
// sends the batch again and it is stored whole, one without is told.
func TestUploadBatchResendsCorruptFrame(t *testing.T) {
	src := seqTensor(8, 6)
	items := uploadSet(src)
	// Inside the second item's payload: the first has verified by then.
	off := int64(uploadBatchHeadSize) + uploadItemSize(len(items[0].Path), 2) + int64(items[0].View.NumBytes()) +
		uploadItemSize(len(items[1].Path), 2) - tensor.FrameCRCSize + 9

	once := newUploadNode(t, corruptRequests("/upload-batch", 1, off))
	c := once.client(&RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	if err := c.UploadBatch(context.Background(), items); err != nil {
		t.Fatalf("upload through one corrupt frame: %v", err)
	}
	if n, a := once.requests("/upload-batch"), c.Stats.Attempts.Load(); n != 2 || a != 2 {
		t.Fatalf("%d requests in %d attempts, want 2 and 2 (the corrupt one and its replacement)", n, a)
	}
	checkUploadSet(t, once.srv.FS, items)

	never := newUploadNode(t, corruptRequests("/upload-batch", 1, off))
	err := never.client(nil).UploadBatch(context.Background(), items)
	var se *statusError
	if !errors.As(err, &se) || se.code != statusCorruptFrame || !strings.Contains(err.Error(), items[1].Path) {
		t.Fatalf("single attempt through a corrupt frame: error %v, want a 422 naming %s", err, items[1].Path)
	}
	storedNothing(t, never.srv.FS, "corrupt frame, one attempt")

	always := newUploadNode(t, corruptRequests("/upload-batch", 1<<30, off))
	c = always.client(&RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	var re *RetryExhaustedError
	if err := c.UploadBatch(context.Background(), items); !errors.As(err, &re) || re.Attempts != 3 {
		t.Fatalf("every attempt corrupt: error %v, want RetryExhaustedError after 3 attempts", err)
	}
	storedNothing(t, always.srv.FS, "corrupt frame, every attempt")
}

// Canceling the caller's context while the batch is on its way returns
// the context's error and stores nothing: the server is left with a body
// that stops short of the length it was told.
func TestUploadBatchCancelMidBody(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned, handled := make(chan struct{}), make(chan struct{})
	n := newUploadNode(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer close(handled)
			r.Body = &cancelingReader{ReadCloser: r.Body, after: 1 << 10, cancel: cancel, returned: returned}
			next.ServeHTTP(w, r)
		})
	})
	big := tensor.New(tensor.Float32, 2048, 2048) // 16 MiB: more than the socket buffers of a stalled connection take
	items := []UploadItem{{Path: "/small", View: seqTensor(4, 4).FullView()}, {Path: "/big", View: big.FullView()}}
	err := n.client(&RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}).UploadBatch(ctx, items)
	close(returned)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled upload: error %v, want context.Canceled", err)
	}
	<-handled
	if got := n.requests("/upload-batch"); got != 1 {
		t.Fatalf("canceled upload made %d requests, want 1: a caller's cancel is not retried", got)
	}
	storedNothing(t, n.srv.FS, "canceled upload")
}

// cancelingReader cancels the client's context once after bytes of the
// request body have arrived, and reads on only when the client's call
// has returned.
type cancelingReader struct {
	io.ReadCloser
	after    int
	cancel   func()
	returned <-chan struct{}
}

func (c *cancelingReader) Read(p []byte) (int, error) {
	if c.after <= 0 {
		c.cancel()
		<-c.returned
	}
	n, err := c.ReadCloser.Read(p)
	c.after -= n
	return n, err
}

// A single upload's body costs what it carries: the request as net/http
// builds it and a copy buffer the size of the body, not the 32 KiB
// io.MultiReader's WriteTo allocated per request.
func TestUploadDoesNotAllocateACopyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are in the count")
	}
	n := newUploadNode(t, nil)
	c := n.client(nil)
	src := tensor.New(tensor.Float32, 512) // 2 KiB
	if err := c.Upload("/warm", src); err != nil {
		t.Fatal(err)
	}
	const uploads = 100
	for name, upload := range map[string]func() error{
		"Upload":     func() error { return c.Upload("/t", src) },
		"UploadFrom": func() error { return c.UploadFrom("/t", src.DType(), src.Shape(), bytes.NewReader(src.Data())) },
	} {
		got := allocatedBy(func() {
			for i := 0; i < uploads; i++ {
				if err := upload(); err != nil {
					t.Fatal(err)
				}
			}
		})
		// The server runs in this process, so its 2 KiB tensor and its
		// share of net/http are in the count: about 11.5 KiB in all, where
		// the 32 KiB buffer alone made it 43.
		if per := got / uploads; per > 16<<10 {
			t.Errorf("%s: %d bytes allocated per 2 KiB upload, client and server together; want under 16 KiB", name, per)
		}
	}
}

// FuzzUploadBatch throws arbitrary bodies at POST /upload-batch.
// Whatever the decoder accepts is the one encoding of what it decoded,
// and nothing shorter is; whatever the server accepts it has stored
// whole, and whatever it refuses — with a 4xx — has stored nothing.
func FuzzUploadBatch(f *testing.F) {
	for _, c := range malformedUpload {
		f.Add(c.body)
	}
	f.Add(twoItemBatch())
	f.Add(rawUploadBody(rawItemOf("/s", tensor.New(tensor.Uint8))))
	f.Fuzz(func(t *testing.T, body []byte) {
		items, re := decodeUploadBytes(body)
		if re != nil && re.code/100 != 4 {
			t.Fatalf("decoder failed with %d (%s), want a 4xx", re.code, re.msg)
		}
		if re == nil {
			checkDecodedBody(t, body, encodeUploaded(t, items), func(b []byte) bool {
				_, re := decodeUploadBytes(b)
				return re == nil
			})
			if len(items) == 0 || len(items) > maxUploadBatchItems {
				t.Fatalf("decoder let %d items through", len(items))
			}
		}
		srv := NewServer(NewMemFS())
		rec := postUpload(srv, body)
		switch {
		case re != nil:
			if rec.Code != re.code {
				t.Fatalf("decoder says %d (%s), server answered %d", re.code, re.msg, rec.Code)
			}
			storedNothing(t, srv.FS, "refused body")
		case rec.Code == http.StatusNoContent:
			for _, it := range items {
				if got, err := srv.FS.GetTensor(it.path); err != nil || !got.Equal(it.t) {
					t.Fatalf("accepted batch did not store %s (err %v)", it.path, err)
				}
			}
		case rec.Code != http.StatusBadRequest: // a path the tree cannot take, e.g. a file's name used as a directory
			t.Fatalf("decoded body answered %d (%s)", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	})
}
