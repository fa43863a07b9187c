package store

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestClientRenameOverREST(t *testing.T) {
	_, c, done := newTestServer(t)
	defer done()
	if err := c.Upload("/job/model.next/dev0/w", seq(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/job/model.next", "/job/model"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Query("/job/model/dev0/w", nil)
	if err != nil || got.NumElems() != 3 {
		t.Fatalf("rename lost data: %v", err)
	}
	if _, err := c.Query("/job/model.next/dev0/w", nil); err == nil {
		t.Fatal("source still present after rename")
	}
	if err := c.Rename("/missing", "/m"); err == nil {
		t.Fatal("rename of missing path succeeded")
	}

	// A rename over an existing, non-empty tree replaces it, as a commit
	// relies on: what only the old tree held is gone, not merged in.
	for name, acc := range map[string]Access{"local": Local{FS: NewMemFS()}, "rest": c} {
		for _, p := range []string{"/over/model/dev0/w", "/over/model/dev0/stale", "/over/model.next/dev0/w"} {
			if err := acc.Upload(p, seq(3)); err != nil {
				t.Fatal(err)
			}
		}
		if err := acc.Rename("/over/model.next", "/over/model"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if names, err := acc.List("/over/model/dev0"); err != nil || len(names) != 1 || names[0] != "w" {
			t.Fatalf("%s: the renamed tree holds %v (%v), want only w", name, names, err)
		}
	}
}

// A directory renamed to itself or below itself is refused and the tree
// stays as it was; moved there, it would be detached from the root and
// lost. Over REST the refusal is a 400, a missing source still a 404.
func TestRenameIntoItselfIsRefused(t *testing.T) {
	fs := NewMemFS()
	srv := NewServer(fs)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if err := fs.PutTensor("/a/w", seq(3)); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{"/a", "/a/b", "//a/b/c", "/a/w/x"} {
		if err := fs.Rename("/a", dst); err == nil {
			t.Fatalf("rename /a to %s succeeded", dst)
		}
		if _, err := fs.GetTensor("/a/w"); err != nil {
			t.Fatalf("rename /a to %s lost the tree: %v", dst, err)
		}
		if names, _ := fs.List("/a"); len(names) != 1 {
			t.Fatalf("rename /a to %s left /a holding %v", dst, names)
		}
	}
	for query, code := range map[string]int{
		"src=/a&dst=/a/b":       http.StatusBadRequest,
		"src=/missing&dst=/a/b": http.StatusNotFound,
	} {
		resp, err := http.Post(hs.URL+"/rename?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Fatalf("POST /rename?%s: %d, want %d", query, resp.StatusCode, code)
		}
	}
	if _, err := fs.GetTensor("/a/w"); err != nil {
		t.Fatalf("a refused rename over REST lost the tree: %v", err)
	}
	// A sibling whose name only starts like the source is not inside it.
	if err := fs.Rename("/a", "/ab"); err != nil {
		t.Fatal(err)
	}
}

func TestRenameEndpointValidation(t *testing.T) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	// Missing params.
	resp, err := http.Post(hs.URL+"/rename?src=/a", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing dst: %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(hs.URL + "/rename?src=/a&dst=/b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rename: %d", resp.StatusCode)
	}
}

func TestBlobEndpointErrors(t *testing.T) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	if _, err := c.GetBlob("/missing"); err == nil {
		t.Fatal("missing blob read succeeded")
	}
	// Wrong method on /blob.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/blob?path=/x", nil)
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /blob: %d", resp.StatusCode)
	}
	if srv.BytesReceived() != 0 {
		t.Fatal("error paths counted as received bytes")
	}
}

func TestTrimStatus(t *testing.T) {
	long := make([]byte, 500)
	for i := range long {
		long[i] = 'a'
	}
	if got := trimStatus(long); len(got) != 200 {
		t.Fatalf("trimStatus long = %d chars", len(got))
	}
	if got := trimStatus([]byte("line1\nline2")); got != "line1" {
		t.Fatalf("trimStatus multiline = %q", got)
	}
}
