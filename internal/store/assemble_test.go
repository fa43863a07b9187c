package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tenplex/internal/tensor"
)

// assembleNode is one store server of an assemble test.
type assembleNode struct {
	srv *Server
	hs  *httptest.Server
}

func newAssembleNode(t *testing.T, wrap func(http.Handler) http.Handler) *assembleNode {
	t.Helper()
	n := &assembleNode{srv: NewServer(NewMemFS())}
	var h http.Handler = n.srv
	if wrap != nil {
		h = wrap(h)
	}
	n.hs = httptest.NewServer(h)
	t.Cleanup(n.hs.Close)
	return n
}

func (n *assembleNode) client(retry *RetryPolicy) *Client {
	return &Client{Base: n.hs.URL, HTTP: n.hs.Client(), Retry: retry}
}

func (n *assembleNode) put(t *testing.T, path string, tn *tensor.Tensor) {
	t.Helper()
	if err := n.srv.FS.PutTensor(path, tn); err != nil {
		t.Fatal(err)
	}
}

func rows(lo, hi, cols int) tensor.Region {
	return tensor.Region{{Lo: lo, Hi: hi}, {Lo: 0, Hi: cols}}
}

// One request builds a tensor out of two peers and the store itself and
// links another; every counter says where the bytes went, and none of
// them arrived as an upload.
func TestAssembleFromPeersSelfAndLink(t *testing.T) {
	a, b, d := newAssembleNode(t, nil), newAssembleNode(t, nil), newAssembleNode(t, nil)
	full := seqTensor(6, 4)
	a.put(t, "/src", full.Slice(rows(0, 2, 4)))
	b.put(t, "/src", full.Slice(rows(2, 4, 4)))
	d.put(t, "/src", full.Slice(rows(4, 6, 4)))
	kept := seqTensor(3, 3)
	d.put(t, "/kept", kept)

	st, err := d.client(nil).Assemble(context.Background(), []AssembleItem{
		{Path: "/next/merged", DType: tensor.Float32, Shape: []int{6, 4}, Fetch: []AssembleFetch{
			{Source: a.hs.URL, Path: "/src", At: rows(0, 2, 4)},
			{Source: b.hs.URL, Path: "/src", Reg: rows(0, 2, 4), At: rows(2, 4, 4)},
			{Path: "/src", At: rows(4, 6, 4)},
		}},
		{Path: "/next/kept", DType: tensor.Float32, Shape: []int{3, 3}, Link: "/kept"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := AssembleStats{BytesCopied: 96, AllocBytes: 96, LinkedBytes: 36}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	got, err := d.srv.FS.GetTensor("/next/merged")
	if err != nil || !got.Equal(full) {
		t.Fatalf("merged tensor wrong (err %v)", err)
	}
	if linked, _ := d.srv.FS.GetTensor("/next/kept"); linked != kept {
		t.Fatal("link copied the tensor instead of storing it by reference")
	}
	if n := d.srv.BytesReceived(); n != 0 {
		t.Fatalf("destination counts %d uploaded bytes for an assemble", n)
	}
	if n := d.srv.BytesPulled(); n != 64 {
		t.Fatalf("destination pulled %d bytes, want 64", n)
	}
	if a.srv.BytesServed() != 32 || b.srv.BytesServed() != 32 {
		t.Fatalf("peers served %d and %d bytes, want 32 each", a.srv.BytesServed(), b.srv.BytesServed())
	}
}

// rawFetch and rawItem are an /assemble request as the wire has it, with
// nothing checked: the tests' own encoder (rawAssemble) writes the layout
// out a second time, independent of the client's, and can say what the
// client's never would.
type rawFetch struct {
	src     uint16
	path    string
	reg, at []byte // encoded regions; nil: rank 0
}

type rawItem struct {
	path    string
	dtype   tensor.DType
	shape   []uint64
	link    string
	fetch   []rawFetch
	fetches uint32 // declared count when fetch is empty
}

func rawAssemble(sources []string, items ...rawItem) []byte {
	buf := tensor.AppendRequestHeader(nil, tensor.RequestAssemble)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sources)))
	for _, src := range sources {
		buf = tensor.AppendString(buf, src)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(items)))
	for _, it := range items {
		buf = tensor.AppendString(buf, it.path)
		buf = append(buf, uint8(it.dtype), uint8(len(it.shape)))
		for _, d := range it.shape {
			buf = binary.LittleEndian.AppendUint64(buf, d)
		}
		buf = tensor.AppendString(buf, it.link)
		if len(it.fetch) > 0 {
			it.fetches = uint32(len(it.fetch))
		}
		buf = binary.LittleEndian.AppendUint32(buf, it.fetches)
		for _, f := range it.fetch {
			buf = binary.LittleEndian.AppendUint16(buf, f.src)
			buf = tensor.AppendString(buf, f.path)
			for _, reg := range [][]byte{f.reg, f.at} {
				if reg == nil {
					reg = rawRegion()
				}
				buf = append(buf, reg...)
			}
		}
	}
	return buf
}

// linked is a well-formed item that links; one builds one that fetches
// a float32 vector of n elements.
func linked(shape ...uint64) rawItem {
	return rawItem{path: "/x", dtype: tensor.Float32, shape: shape, link: "/a"}
}

func fetching(n uint64, fetch ...rawFetch) rawItem {
	return rawItem{path: "/x", dtype: tensor.Float32, shape: []uint64{n}, fetch: fetch}
}

var peers = []string{"http://10.0.0.1:7070", "http://10.0.0.2:7070"}

// malformedAssemble lists request bodies the decoder must refuse, with
// the status it answers; the fuzz target starts from them.
var malformedAssemble = []struct {
	name string
	body []byte
	code int
}{
	{"no body", nil, 400},
	{"json", []byte(`{"items":[]}`), 400},
	{"batch header", cat(tensor.AppendRequestHeader(nil, tensor.RequestBatch), rawAssemble(nil, linked(2))[8:]), 400},
	{"header only", tensor.AppendRequestHeader(nil, tensor.RequestAssemble), 400},
	{"empty", rawAssemble(nil), 400},
	{"fewer items than declared", rawAssemble(nil, linked(2))[:20], 400},
	{"one trailing byte", append(rawAssemble(nil, linked(2)), 0), 400},
	{"no path", rawAssemble(nil, rawItem{dtype: tensor.Float32, shape: []uint64{2}, link: "/a"}), 400},
	{"dtype 0", rawAssemble(nil, rawItem{path: "/x", shape: []uint64{2}, link: "/a"}), 400},
	{"unknown dtype", rawAssemble(nil, rawItem{path: "/x", dtype: 99, shape: []uint64{2}, link: "/a"}), 400},
	{"zero dim", rawAssemble(nil, linked(2, 0)), 400},
	{"negative dim", rawAssemble(nil, linked(1<<64-4)), 400},
	{"rank", rawAssemble(nil, linked(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)), 400},
	{"huge tensor", rawAssemble(nil, linked(65536, 65536)), 413},
	{"overflowing shape", rawAssemble(nil, rawItem{path: "/x", dtype: tensor.Float64, shape: []uint64{1 << 32, 1 << 32, 1 << 32}, link: "/a"}), 413},
	{"link and fetch", rawAssemble(nil, rawItem{path: "/x", dtype: tensor.Float32, shape: []uint64{2}, link: "/a", fetch: []rawFetch{{path: "/a"}}}), 400},
	{"neither", rawAssemble(nil, fetching(2)), 400},
	{"file scheme", rawAssemble([]string{"file:///etc/passwd"}, fetching(2, rawFetch{src: 1, path: "/a"})), 400},
	{"no scheme", rawAssemble([]string{"127.0.0.1:7070"}, fetching(2, rawFetch{src: 1, path: "/a"})), 400},
	{"no host", rawAssemble([]string{"http://"}, fetching(2, rawFetch{src: 1, path: "/a"})), 400},
	{"source listed twice", rawAssemble([]string{peers[0], peers[0]}, fetching(2, rawFetch{src: 1, path: "/a", at: rawRegion(0, 1)}, rawFetch{src: 2, path: "/a", at: rawRegion(1, 2)})), 400},
	{"source past the table", rawAssemble(peers[:1], fetching(2, rawFetch{src: 2, path: "/a"})), 400},
	{"sources out of order", rawAssemble(peers, fetching(2, rawFetch{src: 2, path: "/a", at: rawRegion(0, 1)}, rawFetch{src: 1, path: "/a", at: rawRegion(1, 2)})), 400},
	{"unused source", rawAssemble(peers, fetching(2, rawFetch{src: 1, path: "/a"})), 400},
	{"fetch without path", rawAssemble(nil, fetching(2, rawFetch{})), 400},
	{"empty range", rawAssemble(nil, fetching(2, rawFetch{path: "/a", reg: rawRegion(1, 1)})), 400},
	{"inverted range", rawAssemble(nil, fetching(2, rawFetch{path: "/a", reg: rawRegion(2, 0)})), 400},
	{"range past MaxInt64", rawAssemble(nil, fetching(2, rawFetch{path: "/a", reg: rawRegion(0, 1<<63)})), 400},
	{"at out of bounds", rawAssemble(nil, fetching(2, rawFetch{path: "/a", at: rawRegion(0, 3)})), 400},
	{"at rank", rawAssemble(nil, fetching(2, rawFetch{path: "/a", at: rawRegion(0, 1, 0, 1)})), 400},
	{"at on a scalar", rawAssemble(nil, rawItem{path: "/x", dtype: tensor.Float32, fetch: []rawFetch{{path: "/a", at: rawRegion(0, 1)}}}), 400},
	{"range does not fill at", rawAssemble(nil, fetching(4, rawFetch{path: "/a", reg: rawRegion(0, 3), at: rawRegion(0, 4)})), 400},
	{"range does not fill the tensor", rawAssemble(nil, fetching(4, rawFetch{path: "/a", reg: rawRegion(0, 2, 0, 2)})), 400},
	{"hole", rawAssemble(nil, fetching(4, rawFetch{path: "/a", at: rawRegion(0, 2)})), 400},
	// The caps on what one request may list, refused at the declaration.
	{"too many sources", binary.LittleEndian.AppendUint16(tensor.AppendRequestHeader(nil, tensor.RequestAssemble), maxAssembleSources+1), 413},
	{"too many items", binary.LittleEndian.AppendUint32(rawAssemble(nil)[:10], maxAssembleItems+1), 413},
	{"too many fetches", rawAssemble(nil, rawItem{path: "/x", dtype: tensor.Float32, shape: []uint64{2}, fetches: maxAssembleFetches + 1}), 413},
}

// decodeAssembleBytes runs the /assemble request decoder over a body
// held in memory.
func decodeAssembleBytes(body []byte) ([]AssembleItem, *requestError) {
	d := tensor.NewRequestReader()
	d.Reset(bytes.NewReader(body))
	return decodeAssembleRequest(d)
}

func TestAssembleRejectsMalformedRequests(t *testing.T) {
	d := newAssembleNode(t, nil)
	post := func(body []byte) (int, string) {
		resp, err := d.hs.Client().Post(d.hs.URL+"/assemble", "application/x-tenplex-request", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		return resp.StatusCode, msg.String()
	}
	for _, c := range malformedAssemble {
		if code, msg := post(c.body); code != c.code {
			t.Errorf("%s: status %d (%s), want %d", c.name, code, strings.TrimSpace(msg), c.code)
		}
	}
	// Each tensor under the per-tensor cap, their sum over the request's:
	// refused before the first of them is allocated.
	big := rawItem{path: "/x", dtype: tensor.Float32, shape: []uint64{32768, 32768}, fetch: []rawFetch{{src: 1, path: "/a"}}}
	bigs := make([]rawItem, maxAssembleBytes/maxTensorBytes+1)
	for i := range bigs {
		bigs[i] = big
	}
	if code, msg := post(rawAssemble(peers[:1], bigs...)); code != 413 || !strings.Contains(msg, "in all") {
		t.Errorf("items summing past the total cap: status %d (%s), want 413", code, strings.TrimSpace(msg))
	}
	// A body over the limit is refused as that, by name: every item of
	// it is well-formed, so only the limit stops the decoder.
	long := rawItem{path: "/" + strings.Repeat("x", 400), dtype: tensor.Float32, shape: []uint64{2}, link: "/a"}
	longs := make([]rawItem, maxAssembleItems)
	for i := range longs {
		longs[i] = long
	}
	body := rawAssemble(nil, longs...)
	if len(body) <= maxAssembleRequestBytes {
		t.Fatalf("oversized body is only %d bytes", len(body))
	}
	if code, msg := post(body); code != 413 || !strings.Contains(msg, fmt.Sprint(maxAssembleRequestBytes)) {
		t.Errorf("oversized body: status %d (%s), want 413 naming the limit", code, strings.TrimSpace(msg))
	}
	resp, err := d.hs.Client().Get(d.hs.URL + "/assemble")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /assemble: status %d, want 405", resp.StatusCode)
	}
	if names, _ := d.srv.FS.List("/"); len(names) != 0 {
		t.Fatalf("refused requests left %v in the store", names)
	}
}

// As for /batch: a declared count sizes nothing.
func TestAssembleDecoderDoesNotAllocateFromDeclaredSizes(t *testing.T) {
	head := rawAssemble(nil)[:10:10] // header, no sources; capped, so every append below copies
	for name, body := range map[string][]byte{
		"2^32-1 items":           binary.LittleEndian.AppendUint32(head, 1<<32-1),
		"the most items":         binary.LittleEndian.AppendUint32(head, maxAssembleItems),
		"the most fetches":       rawAssemble(nil, rawItem{path: "/x", dtype: tensor.Float32, shape: []uint64{2}, fetches: maxAssembleFetches}),
		"a path of 2^32-1 bytes": cat(binary.LittleEndian.AppendUint32(head, 1), binary.LittleEndian.AppendUint32(nil, 1<<32-1), []byte("/x")),
		"the most sources":       binary.LittleEndian.AppendUint16(head[:8:8], maxAssembleSources),
	} {
		var re *requestError
		if n := allocatedBy(func() { _, re = decodeAssembleBytes(body) }); n > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes before failing", name, n)
		}
		if re == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// An /assemble is stored whole or not at all: a request whose later item
// cannot be stored answers 400, keeps none of its items, and hands every
// buffer it built back to the store.
func TestAssembleAllOrNone(t *testing.T) {
	for name, paths := range conflicting {
		d := newAssembleNode(t, nil)
		placeHeld(t, d.srv.FS)
		_, err := d.client(testRetryPolicy()).Assemble(context.Background(), []AssembleItem{
			{Path: paths[0], DType: tensor.Float32, Shape: []int{2}, Fetch: []AssembleFetch{{Path: "/held"}}},
			{Path: paths[1], DType: tensor.Float32, Shape: []int{2}, Fetch: []AssembleFetch{{Path: "/dir/x"}}},
		})
		var se *statusError
		if !errors.As(err, &se) || se.code != http.StatusBadRequest {
			t.Fatalf("%s: error %v, want a 400", name, err)
		}
		holdsOnlyPlaced(t, d.srv.FS, name, 2*2*4)
	}
}

// What the store finds wrong only when it looks at its own tensors is
// the caller's fault too, and final.
func TestAssembleSelfAndLinkErrorsAreNotRetried(t *testing.T) {
	d := newAssembleNode(t, nil)
	d.put(t, "/have", seqTensor(2, 2))
	c := d.client(testRetryPolicy())
	for name, item := range map[string]AssembleItem{
		"missing link":   {Path: "/n", DType: tensor.Float32, Shape: []int{2, 2}, Link: "/absent"},
		"link shape":     {Path: "/n", DType: tensor.Float32, Shape: []int{4}, Link: "/have"},
		"missing self":   {Path: "/n", DType: tensor.Float32, Shape: []int{2, 2}, Fetch: []AssembleFetch{{Path: "/absent"}}},
		"self too small": {Path: "/n", DType: tensor.Float32, Shape: []int{4, 4}, Fetch: []AssembleFetch{{Path: "/have"}}},
	} {
		before := c.Stats.Attempts.Load()
		_, err := c.Assemble(context.Background(), []AssembleItem{item})
		var se *statusError
		if !errors.As(err, &se) || se.code/100 != 4 {
			t.Errorf("%s: error %v, want a 4xx", name, err)
		}
		if n := c.Stats.Attempts.Load() - before; n != 1 {
			t.Errorf("%s: %d attempts, want 1", name, n)
		}
	}
	if _, err := d.srv.FS.GetTensor("/n"); err == nil {
		t.Fatal("a failed assemble stored its tensor")
	}
}

// A peer that is gone is a 502: retryable, and RetryExhaustedError once
// the caller's budget is spent. A peer that answers "no such tensor" is
// final. Neither stores anything.
func TestAssembleDeadAndRefusingPeers(t *testing.T) {
	d := newAssembleNode(t, nil)
	dead := newAssembleNode(t, nil)
	dead.hs.Close()
	item := func(src string) []AssembleItem {
		return []AssembleItem{{Path: "/n", DType: tensor.Float32, Shape: []int{2, 2},
			Fetch: []AssembleFetch{{Source: src, Path: "/t"}}}}
	}

	_, err := d.client(nil).Assemble(context.Background(), item(dead.hs.URL))
	var se *statusError
	if !errors.As(err, &se) || se.code != http.StatusBadGateway || !retryable(err) {
		t.Fatalf("dead peer: error %v, want a retryable 502", err)
	}
	c := d.client(testRetryPolicy())
	_, err = c.Assemble(context.Background(), item(dead.hs.URL))
	var re *RetryExhaustedError
	if !errors.As(err, &re) || re.Attempts != 4 {
		t.Fatalf("dead peer with a budget: error %v, want RetryExhaustedError after 4 attempts", err)
	}

	empty := newAssembleNode(t, nil)
	c = d.client(testRetryPolicy())
	_, err = c.Assemble(context.Background(), item(empty.hs.URL))
	if !errors.As(err, &se) || se.code != http.StatusFailedDependency {
		t.Fatalf("refusing peer: error %v, want 424", err)
	}
	if n := c.Stats.Attempts.Load(); n != 1 {
		t.Fatalf("refusing peer: %d attempts, want 1", n)
	}
	if _, err := d.srv.FS.GetTensor("/n"); err == nil {
		t.Fatal("a failed assemble stored its tensor")
	}
}

// scalarAtRank is an assemble of a scalar (no shape) with one fetch from
// a peer that names a rank-1 target region.
func scalarAtRank(peer string) []AssembleItem {
	return []AssembleItem{{Path: "/n", DType: tensor.Float32,
		Fetch: []AssembleFetch{{Source: peer, Path: "/t", At: tensor.Region{{Lo: 0, Hi: 1}}}}}}
}

// A target region whose rank is not its tensor's is refused with a 400
// before anything is pulled — a scalar's included, whose nil shape once
// let any region through to a walk past its shape, in the goroutine
// pulling from the peer, where the panic took the whole store down.
func TestAssembleRefusesTargetOfAnotherRank(t *testing.T) {
	d, peer := newAssembleNode(t, nil), newAssembleNode(t, nil)
	peer.put(t, "/t", tensor.New(tensor.Float32))
	var se *statusError
	if _, err := d.client(nil).Assemble(context.Background(), scalarAtRank(peer.hs.URL)); !errors.As(err, &se) || se.code != http.StatusBadRequest {
		t.Fatalf("scalar with a rank-1 target: error %v, want a 400", err)
	}
	if _, err := d.srv.FS.GetTensor("/n"); err == nil {
		t.Fatal("a refused assemble stored its tensor")
	}
	// The store is still up and serves the same pull with a scalar target.
	item := scalarAtRank(peer.hs.URL)
	item[0].Fetch[0].At = nil
	if _, err := d.client(nil).Assemble(context.Background(), item); err != nil {
		t.Fatalf("store stopped serving after the refused request: %v", err)
	}
	if _, err := d.srv.FS.GetTensor("/n"); err != nil {
		t.Fatal(err)
	}
}

// A frame damaged between peer and destination fails its CRC on the
// destination, which asks the peer for it again; the caller sees one
// successful request.
func TestAssembleRepullsCorruptPeerFrame(t *testing.T) {
	var th *tamperHandler
	peer := newAssembleNode(t, func(next http.Handler) http.Handler {
		th = &tamperHandler{next: next, match: "/batch", tamperN: 1, wrap: func(w http.ResponseWriter) http.ResponseWriter {
			return &corruptWriter{ResponseWriter: w, off: tensor.FrameStreamHeaderSize + tensor.FrameHeaderSize + 7}
		}}
		return th
	})
	src := seqTensor(4, 4)
	peer.put(t, "/t", src)
	d := newAssembleNode(t, nil)
	c := d.client(nil)
	st, err := c.Assemble(context.Background(), []AssembleItem{{Path: "/n", DType: tensor.Float32, Shape: []int{4, 4},
		Fetch: []AssembleFetch{{Source: peer.hs.URL, Path: "/t"}}}})
	if err != nil {
		t.Fatalf("assemble through one corrupt frame: %v", err)
	}
	if st.BytesCopied != 64 || d.srv.BytesPulled() != 64 {
		t.Fatalf("stats %+v and %d bytes pulled, want 64 bytes copied and pulled", st, d.srv.BytesPulled())
	}
	if n := len(th.batchRequests()); n != 2 {
		t.Fatalf("peer saw %d /batch requests, want 2 (the corrupt one and its replacement)", n)
	}
	if n := c.Stats.Attempts.Load(); n != 1 {
		t.Fatalf("caller made %d attempts, want 1", n)
	}
	if got, err := d.srv.FS.GetTensor("/n"); err != nil || !got.Equal(src) {
		t.Fatalf("re-pulled tensor wrong (err %v)", err)
	}
}

// A chunked upload announces no length; the header's declared size is
// then all the server has, and it is capped before the allocation.
func TestUploadCapsDeclaredSizeOfChunkedBody(t *testing.T) {
	d := newAssembleNode(t, nil)
	header := tensor.EncodeHeader(tensor.Float64, []int{1 << 20, 1 << 20}) // 8 TiB
	req, err := http.NewRequest(http.MethodPost, d.hs.URL+"/upload?path=/big", struct{ *bytes.Reader }{bytes.NewReader(header)})
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	resp, err := d.hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func FuzzAssembleRequest(f *testing.F) {
	for _, c := range malformedAssemble {
		f.Add(c.body)
	}
	whole, err := encodeAssembleRequest([]AssembleItem{
		{Path: "/n", DType: tensor.Float32, Shape: []int{4, 4}, Fetch: []AssembleFetch{
			{Path: "/t", Reg: rows(0, 2, 4), At: rows(0, 2, 4)},
			{Source: "http://127.0.0.1:1", Path: "/t", At: rows(2, 4, 4)}}},
		{Path: "/k", DType: tensor.Float32, Shape: []int{4, 4}, Link: "/t"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	scalar, err := encodeAssembleRequest(scalarAtRank("http://127.0.0.1:1"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(scalar)
	srv := NewServer(NewMemFS())
	if err := srv.FS.PutTensor("/t", seqTensor(4, 4)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, re := decodeAssembleBytes(body)
		if re != nil {
			if re.code/100 != 4 {
				t.Fatalf("decoder failed with %d (%s), want a 4xx", re.code, re.msg)
			}
			return
		}
		again, err := encodeAssembleRequest(items)
		if err != nil {
			t.Fatalf("accepted request does not encode: %v", err)
		}
		checkDecodedBody(t, body, again, func(b []byte) bool {
			_, re := decodeAssembleBytes(b)
			return re == nil
		})
		if len(items) == 0 || len(items) > maxAssembleItems {
			t.Fatalf("decoder let %d items through", len(items))
		}
		local := true
		var alloc int64
		for _, it := range items {
			n := tensor.ShapeNumBytes(it.DType, it.Shape)
			if n <= 0 || n > maxTensorBytes {
				t.Fatalf("decoder let a tensor of %d bytes through", n)
			}
			if it.Link == "" {
				if alloc += n; alloc > maxAssembleBytes {
					t.Fatalf("decoder let a request allocating more than %d bytes through", int64(maxAssembleBytes))
				}
			}
			if len(it.Fetch) > maxAssembleFetches {
				t.Fatalf("decoder let %d fetches through", len(it.Fetch))
			}
			for _, fe := range it.Fetch {
				local = local && fe.Source == ""
				if fe.At != nil && !fe.At.Valid(it.Shape) {
					t.Fatalf("decoder let target %v through for shape %v", fe.At, it.Shape)
				}
				for _, r := range []tensor.Region{fe.Reg, fe.At} {
					if r != nil && len(r) != len(it.Shape) {
						t.Fatalf("decoder let region %v of rank %d through for a rank-%d item", r, len(r), len(it.Shape))
					}
				}
			}
			// Keep the fuzzer's own allocations small.
			local = local && tensor.ShapeNumBytes(it.DType, it.Shape) <= 1<<20
		}
		if local { // nothing to dial: run the request for real
			_, _ = srv.assemble(context.Background(), items)
		}
	})
}
