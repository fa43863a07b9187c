package store

import (
	"bytes"
	"context"
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

// malformedAssemble lists request bodies the decoder must refuse, with
// the status it answers; the fuzz target starts from them.
var malformedAssemble = []struct {
	name, body string
	code       int
}{
	{"not json", `{"items":`, 400},
	{"empty", `{"items":[]}`, 400},
	{"no path", `{"items":[{"dtype":"float32","shape":[2],"link":"/a"}]}`, 400},
	{"bad dtype", `{"items":[{"path":"/x","dtype":"complex","shape":[2],"link":"/a"}]}`, 400},
	{"zero dim", `{"items":[{"path":"/x","dtype":"float32","shape":[2,0],"link":"/a"}]}`, 400},
	{"negative dim", `{"items":[{"path":"/x","dtype":"float32","shape":[-4],"link":"/a"}]}`, 400},
	{"rank", `{"items":[{"path":"/x","dtype":"float32","shape":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"link":"/a"}]}`, 400},
	{"huge tensor", `{"items":[{"path":"/x","dtype":"float32","shape":[65536,65536],"link":"/a"}]}`, 413},
	{"overflowing shape", `{"items":[{"path":"/x","dtype":"float64","shape":[4294967296,4294967296,4294967296],"link":"/a"}]}`, 413},
	{"link and fetch", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"link":"/a","fetch":[{"src":"self","path":"/a"}]}]}`, 400},
	{"neither", `{"items":[{"path":"/x","dtype":"float32","shape":[2]}]}`, 400},
	{"file scheme", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"file:///etc/passwd","path":"/a"}]}]}`, 400},
	{"no scheme", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"127.0.0.1:7070","path":"/a"}]}]}`, 400},
	{"no host", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"http://","path":"/a"}]}]}`, 400},
	{"fetch without path", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"self"}]}]}`, 400},
	{"open range", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"self","path":"/a","range":"[:]"}]}]}`, 400},
	{"inverted range", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"self","path":"/a","range":"[2:0]"}]}]}`, 400},
	{"at out of bounds", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"self","path":"/a","at":"[0:3]"}]}]}`, 400},
	{"at rank", `{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[{"src":"self","path":"/a","at":"[0:1,0:1]"}]}]}`, 400},
	{"range does not fill at", `{"items":[{"path":"/x","dtype":"float32","shape":[4],"fetch":[{"src":"self","path":"/a","range":"[0:3]","at":"[0:4]"}]}]}`, 400},
	{"hole", `{"items":[{"path":"/x","dtype":"float32","shape":[4],"fetch":[{"src":"self","path":"/a","at":"[0:2]"}]}]}`, 400},
}

func TestAssembleRejectsMalformedRequests(t *testing.T) {
	d := newAssembleNode(t, nil)
	post := func(body string) (int, string) {
		resp, err := d.hs.Client().Post(d.hs.URL+"/assemble", "application/json", strings.NewReader(body))
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
	// The caps on what one request may list.
	many := func(n int, one string) string { return strings.TrimSuffix(strings.Repeat(one+",", n), ",") }
	link := `{"path":"/x","dtype":"float32","shape":[2],"link":"/a"}`
	if code, _ := post(`{"items":[` + many(maxAssembleItems+1, link) + `]}`); code != 413 {
		t.Errorf("too many items: status %d, want 413", code)
	}
	fetch := `{"src":"self","path":"/a","at":"[0:1]"}`
	if code, _ := post(`{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[` + many(maxAssembleFetches+1, fetch) + `]}]}`); code != 413 {
		t.Errorf("too many fetches: status %d, want 413", code)
	}
	var srcs []string
	for i := 0; i <= maxAssembleSources; i++ {
		srcs = append(srcs, fmt.Sprintf(`{"src":"http://10.0.%d.%d:7070","path":"/a","at":"[0:1]"}`, i/256, i%256))
	}
	if code, _ := post(`{"items":[{"path":"/x","dtype":"float32","shape":[2],"fetch":[` + strings.Join(srcs, ",") + `]}]}`); code != 413 {
		t.Errorf("too many sources: status %d, want 413", code)
	}
	// Each tensor under the per-tensor cap, their sum over the request's:
	// refused before the first of them is allocated.
	big := `{"path":"/x","dtype":"float32","shape":[32768,32768],"fetch":[{"src":"http://10.0.0.1:7070","path":"/a"}]}`
	if code, msg := post(`{"items":[` + many(maxAssembleBytes/maxTensorBytes+1, big) + `]}`); code != 413 || !strings.Contains(msg, "in all") {
		t.Errorf("items summing past the total cap: status %d (%s), want 413", code, strings.TrimSpace(msg))
	}
	if code, _ := post(`{"items":[],"pad":"` + strings.Repeat("x", maxAssembleRequestBytes) + `"}`); code != 413 {
		t.Errorf("oversized body: status %d, want 413", code)
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
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"items":[{"path":"/n","dtype":"float32","shape":[4,4],"fetch":[{"src":"self","path":"/t","range":"[0:2,0:4]","at":"[0:2,0:4]"},{"src":"http://127.0.0.1:1","path":"/t","at":"[2:4,0:4]"}]},{"path":"/k","dtype":"float32","shape":[4,4],"link":"/t"}]}`))
	srv := NewServer(NewMemFS())
	if err := srv.FS.PutTensor("/t", seqTensor(4, 4)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, err := decodeAssembleRequest(body)
		if err != nil {
			var re *requestError
			if !errors.As(err, &re) || re.code/100 != 4 {
				t.Fatalf("decoder failed with %v, want a 4xx requestError", err)
			}
			return
		}
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
			}
			// Keep the fuzzer's own allocations small.
			local = local && tensor.ShapeNumBytes(it.DType, it.Shape) <= 1<<20
		}
		if local { // nothing to dial: run the request for real
			_, _ = srv.assemble(context.Background(), items)
		}
	})
}
