package store

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"tenplex/internal/tensor"
)

func newTestServer(t *testing.T) (*Server, *Client, func()) {
	t.Helper()
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	return srv, &Client{Base: hs.URL, HTTP: hs.Client()}, hs.Close
}

func TestClientUploadQueryRoundTrip(t *testing.T) {
	_, c, done := newTestServer(t)
	defer done()

	x := seq(4, 6)
	if err := c.Upload("/job/model/dev0/w", x); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query("/job/model/dev0/w", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestClientRangeQueryMovesOnlyRequestedBytes(t *testing.T) {
	srv, c, done := newTestServer(t)
	defer done()

	x := seq(100, 100) // 80 KB
	if err := c.Upload("/w", x); err != nil {
		t.Fatal(err)
	}
	before := srv.BytesServed()
	reg := tensor.Region{{Lo: 0, Hi: 100}, {Lo: 10, Hi: 12}} // 2 columns = 1.6 KB
	got, err := c.Query("/w", reg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x.Slice(reg)) {
		t.Fatal("range query returned wrong data")
	}
	served := srv.BytesServed() - before
	want := int64(got.EncodedSize())
	if served != want {
		t.Fatalf("served %d bytes for a %d-byte sub-tensor", served, want)
	}
	if served > int64(x.EncodedSize())/10 {
		t.Fatalf("range query served %d bytes of an %d-byte tensor", served, x.EncodedSize())
	}
}

func TestClientBlobAndStat(t *testing.T) {
	_, c, done := newTestServer(t)
	defer done()

	if err := c.PutBlob("/meta", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	data, err := c.GetBlob("/meta")
	if err != nil || string(data) != `{"a":1}` {
		t.Fatalf("blob roundtrip: %q %v", data, err)
	}
	st, err := c.Stat("/meta")
	if err != nil || !st.Blob || st.Bytes != 7 {
		t.Fatalf("stat blob = %+v, %v", st, err)
	}
	_ = c.Upload("/t", seq(2, 2))
	ts, err := c.Stat("/t")
	if err != nil || ts.Blob || ts.DType != "float64" || len(ts.Shape) != 2 {
		t.Fatalf("stat tensor = %+v, %v", ts, err)
	}
}

// A blob's announced length is not trusted with memory: over the cap it
// is refused before a byte is read, and nothing is stored.
func TestBlobRefusesBodyOverTheCap(t *testing.T) {
	srv := NewServer(NewMemFS())
	req := httptest.NewRequest(http.MethodPost, "/blob?path=/meta", strings.NewReader(`{"a":1}`))
	req.ContentLength = maxTensorBytes + 1
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if want := fmt.Sprint(int64(maxTensorBytes)); rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("announced over the cap: status %d (%s), want 413 naming %s", rec.Code, strings.TrimSpace(rec.Body.String()), want)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/blob?path=/meta", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET of the refused blob: status %d, want 404", rec.Code)
	}
	storedNothing(t, srv.FS, "refused blob")
	if n := srv.BytesReceived(); n != 0 {
		t.Errorf("refused blob counted %d bytes received", n)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/blob?path=/meta", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", rec.Code)
	}
	// A body of unknown length goes through the same cap, and under it is
	// stored as before.
	req = httptest.NewRequest(http.MethodPost, "/blob?path=/meta", struct{ io.Reader }{strings.NewReader(`{"a":1}`)})
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if data, err := srv.FS.GetBlob("/meta"); rec.Code != http.StatusNoContent || err != nil || string(data) != `{"a":1}` {
		t.Errorf("chunked blob under the cap: status %d, stored %q (err %v)", rec.Code, data, err)
	}
}

func TestClientListAndDelete(t *testing.T) {
	_, c, done := newTestServer(t)
	defer done()

	_ = c.Upload("/a/x", seq(1))
	_ = c.Upload("/a/y", seq(1))
	names, err := c.List("/a")
	if err != nil || len(names) != 2 {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := c.Delete("/a/x"); err != nil {
		t.Fatal(err)
	}
	names, _ = c.List("/a")
	if len(names) != 1 || names[0] != "y" {
		t.Fatalf("after delete: %v", names)
	}
	if err := c.Delete("/a/x"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestServerErrorPaths(t *testing.T) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()

	get := func(u string) int {
		resp, err := http.Get(hs.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/query"); got != http.StatusBadRequest {
		t.Errorf("missing path: %d", got)
	}
	if got := get("/query?path=/missing"); got != http.StatusNotFound {
		t.Errorf("missing tensor: %d", got)
	}
	if got := get("/stat?path=/missing"); got != http.StatusNotFound {
		t.Errorf("missing stat: %d", got)
	}
	if got := get("/list?path=/missing"); got != http.StatusNotFound {
		t.Errorf("missing list: %d", got)
	}
	// Bad range.
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	_ = c.Upload("/w", seq(2, 2))
	if got := get("/query?path=/w&range=" + url.QueryEscape("[0:9,0:9]")); got != http.StatusBadRequest {
		t.Errorf("bad range: %d", got)
	}
	if got := get("/query?path=/w&range=oops"); got != http.StatusBadRequest {
		t.Errorf("unparsable range: %d", got)
	}
	// Wrong methods.
	resp, err := http.Post(hs.URL+"/query?path=/w", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /query: %d", resp.StatusCode)
	}
	// Corrupt upload body.
	resp, err = http.Post(hs.URL+"/upload?path=/bad", "", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload: %d", resp.StatusCode)
	}
}

func TestClientErrorsIncludeServerMessage(t *testing.T) {
	_, c, done := newTestServer(t)
	defer done()
	_, err := c.Query("/nope", nil)
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("error lacks server message: %v", err)
	}
}

func TestListenServesRealSocket(t *testing.T) {
	srv := NewServer(NewMemFS())
	addr, closeFn, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeFn() }()
	c := &Client{Base: "http://" + addr}
	if err := c.Upload("/w", seq(2)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query("/w", nil)
	if err != nil || got.NumElems() != 2 {
		t.Fatalf("real socket roundtrip: %v", err)
	}
}

func TestLocalAccessMatchesClient(t *testing.T) {
	fs := NewMemFS()
	l := Local{FS: fs}
	x := seq(3, 3)
	if err := l.Upload("/w", x); err != nil {
		t.Fatal(err)
	}
	got, err := l.Query("/w", tensor.Region{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 3}})
	if err != nil || got.NumElems() != 3 {
		t.Fatalf("local slice: %v", err)
	}
	whole, err := l.Query("/w", nil)
	if err != nil || !whole.Equal(x) {
		t.Fatalf("local whole query: %v", err)
	}
	names, err := l.List("/")
	if err != nil || len(names) != 1 {
		t.Fatalf("local list: %v %v", names, err)
	}
	if err := l.Delete("/w"); err != nil {
		t.Fatal(err)
	}
}
