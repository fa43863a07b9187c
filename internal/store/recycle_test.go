package store

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tenplex/internal/tensor"
)

// uniform is a Uint8 tensor whose every byte is g.
func uniform(g byte, shape ...int) *tensor.Tensor {
	return tensor.FromBytes(tensor.Uint8, bytes.Repeat([]byte{g}, tensor.ShapeNumElems(shape)), shape...)
}

// isUniform reports whether every byte of b is the same non-zero value:
// what a reader of a uniform tensor gets unless its buffer was reused
// (or never filled) under it.
func isUniform(b []byte) bool {
	return len(b) > 0 && b[0] != 0 && bytes.Count(b, b[:1]) == len(b)
}

// plant stores a tensor of pattern bytes through /upload, so the store
// owns its buffer, and deletes it: the free list then holds the pattern.
func plant(t *testing.T, n *assembleNode, pattern byte, shape ...int) {
	t.Helper()
	if err := n.client(nil).Upload("/plant", uniform(pattern, shape...)); err != nil {
		t.Fatal(err)
	}
	if err := n.srv.FS.Delete("/plant"); err != nil {
		t.Fatal(err)
	}
	if want := tensor.ShapeNumBytes(tensor.Uint8, shape); n.srv.FS.free.bytes != want {
		t.Fatalf("free list holds %d bytes after the delete, want the planted %d", n.srv.FS.free.bytes, want)
	}
}

func postAssemble(t *testing.T, srv *Server, items []AssembleItem) *httptest.ResponseRecorder {
	t.Helper()
	body, err := encodeAssembleRequest(items)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/assemble", bytes.NewReader(body)))
	return rec
}

// A recycled buffer never shows what it held: targets that overlap are
// refused, and a tiling the bounded check cannot prove is cleared first.
func TestRecycleNeverShowsFreedBytes(t *testing.T) {
	t.Run("overlap refused", func(t *testing.T) {
		n := newAssembleNode(t, nil)
		plant(t, n, 0xAB, 4, 4)
		n.put(t, "/src", uniform(1, 4, 4))
		// Rows 0-1 and 1-2 add up to the tensor's bytes and leave row 3 a hole.
		rec := postAssemble(t, n.srv, []AssembleItem{{Path: "/n", DType: tensor.Uint8, Shape: []int{4, 4}, Fetch: []AssembleFetch{
			{Path: "/src", Reg: rows(0, 2, 4), At: rows(0, 2, 4)},
			{Path: "/src", Reg: rows(1, 3, 4), At: rows(1, 3, 4)}}}})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("overlapping targets answered %d (%s), want 400", rec.Code, rec.Body)
		}
		if _, err := n.srv.FS.Stat("/n"); err == nil {
			t.Fatal("a refused assemble stored its tensor")
		}
	})
	t.Run("unproven tiling cleared", func(t *testing.T) {
		// A 16x16x16 grid of one-element targets, every slab 256 wide
		// along each dimension: the sweep's budget runs out on all three.
		// One cell is left out and another named twice, so the bytes add
		// up and the request decodes.
		const k = 16
		shape := []int{k, k, k}
		n := newAssembleNode(t, nil)
		plant(t, n, 0xAB, shape...)
		n.put(t, "/cube", uniform(1, shape...))
		var fetch []AssembleFetch
		for x := 0; x < k; x++ {
			for y := 0; y < k; y++ {
				for z := 0; z < k; z++ {
					if x+y+z == 0 {
						continue
					}
					cell := tensor.Region{{Lo: x, Hi: x + 1}, {Lo: y, Hi: y + 1}, {Lo: z, Hi: z + 1}}
					fetch = append(fetch, AssembleFetch{Path: "/cube", Reg: cell, At: cell})
				}
			}
		}
		fetch = append(fetch, fetch[len(fetch)-1])
		it := AssembleItem{Path: "/n", DType: tensor.Uint8, Shape: shape, Fetch: fetch}
		if overlap, proven := tiles(it); overlap || proven {
			t.Fatalf("tiles = (overlap %v, proven %v) on a grid past its budget, want neither", overlap, proven)
		}
		if rec := postAssemble(t, n.srv, []AssembleItem{it}); rec.Code != http.StatusOK {
			t.Fatalf("assemble answered %d (%s)", rec.Code, rec.Body)
		}
		if n.srv.FS.free.bytes != 0 {
			t.Fatal("the assemble did not take the planted buffer")
		}
		got, err := n.srv.FS.GetTensor("/n")
		if err != nil {
			t.Fatal(err)
		}
		if b := got.Data(); b[0] != 0 || bytes.Count(b, []byte{1}) != len(b)-1 {
			t.Fatalf("the hole reads %#x, want 0 (and 1 everywhere else)", b[0])
		}
	})
	t.Run("tiles", func(t *testing.T) {
		half := func(lo int) AssembleFetch { return AssembleFetch{Path: "/s", At: rows(lo, lo+2, 4)} }
		for _, c := range []struct {
			name            string
			fetch           []AssembleFetch
			overlap, proven bool
		}{
			{"one target", []AssembleFetch{{Path: "/s"}}, false, true},
			{"two halves", []AssembleFetch{half(2), half(0)}, false, true},
			{"shifted halves", []AssembleFetch{half(0), half(1)}, true, false},
			{"whole and half", []AssembleFetch{{Path: "/s"}, half(2)}, true, false},
		} {
			overlap, proven := tiles(AssembleItem{Shape: []int{4, 4}, Fetch: c.fetch})
			if overlap != c.overlap || proven != c.proven {
				t.Errorf("%s: tiles = (overlap %v, proven %v), want (%v, %v)", c.name, overlap, proven, c.overlap, c.proven)
			}
		}
	})
}

// An upload or an assemble that fails stores nothing, and the buffer it
// had taken goes back to the free list.
func TestRecycleFailuresStoreNothing(t *testing.T) {
	n := newAssembleNode(t, nil)
	plant(t, n, 0xAB, 4, 4)
	check := func(what string, free int64) {
		t.Helper()
		if names, _ := n.srv.FS.List("/"); len(names) != 0 {
			t.Fatalf("%s: the store holds %v", what, names)
		}
		if n.srv.FS.free.bytes != free {
			t.Fatalf("%s: free list holds %d bytes, want %d", what, n.srv.FS.free.bytes, free)
		}
	}

	// A chunked /upload whose payload stops short.
	body := append(tensor.EncodeHeader(tensor.Uint8, []int{4, 4}), 1, 2, 3)
	req := httptest.NewRequest(http.MethodPost, "/upload?path=/u", struct{ *bytes.Reader }{bytes.NewReader(body)})
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	n.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("short upload answered %d", rec.Code)
	}
	check("short upload", 16)

	// An /upload-batch whose second frame fails its checksum: its first
	// item took the planted buffer, its second a new one, and both go back.
	if rec := postUpload(n.srv, flip(rawUploadBody(rawItemOf("/a", uniform(2, 4, 4)), rawItemOf("/b", uniform(3, 4, 4))), -1)); rec.Code != statusCorruptFrame {
		t.Fatalf("corrupt batch answered %d", rec.Code)
	}
	check("corrupt batch", 32)

	// An /assemble whose second fetch names nothing.
	n.put(t, "/src", uniform(1, 2, 4))
	rec = postAssemble(t, n.srv, []AssembleItem{{Path: "/x", DType: tensor.Uint8, Shape: []int{4, 4}, Fetch: []AssembleFetch{
		{Path: "/src", At: rows(0, 2, 4)}, {Path: "/missing", At: rows(2, 4, 4)}}}})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("assemble from a missing tensor answered %d", rec.Code)
	}
	if err := n.srv.FS.Delete("/src"); err != nil {
		t.Fatal(err)
	}
	check("failed assemble", 32)
}

// A tensor whose reference left the store, through an /assemble link or
// a Local read of the whole tensor, keeps its bytes after it is deleted.
func TestRecycleSkipsSharedTensors(t *testing.T) {
	n := newAssembleNode(t, nil)
	c := n.client(nil)
	for _, share := range []struct {
		name string
		ref  func(t *testing.T) *tensor.Tensor
	}{
		{"link", func(t *testing.T) *tensor.Tensor {
			if rec := postAssemble(t, n.srv, []AssembleItem{{Path: "/linked", DType: tensor.Uint8, Shape: []int{8, 8}, Link: "/a"}}); rec.Code != http.StatusOK {
				t.Fatalf("link answered %d (%s)", rec.Code, rec.Body)
			}
			ref, err := n.srv.FS.GetTensor("/linked")
			if err != nil {
				t.Fatal(err)
			}
			if err := n.srv.FS.Delete("/linked"); err != nil {
				t.Fatal(err)
			}
			return ref
		}},
		{"Local.Query", func(t *testing.T) *tensor.Tensor {
			ref, err := Local{FS: n.srv.FS}.Query("/a", nil)
			if err != nil {
				t.Fatal(err)
			}
			return ref
		}},
	} {
		if err := c.Upload("/a", uniform(7, 8, 8)); err != nil {
			t.Fatal(err)
		}
		ref := share.ref(t)
		if err := n.srv.FS.Delete("/a"); err != nil {
			t.Fatal(err)
		}
		if n.srv.FS.free.bytes != 0 {
			t.Fatalf("%s: a shared tensor went to the free list", share.name)
		}
		if err := c.Upload("/b", uniform(9, 8, 8)); err != nil {
			t.Fatal(err)
		}
		if err := n.srv.FS.Delete("/b"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Data(), uniform(7, 8, 8).Data()) {
			t.Fatalf("%s: a shared tensor's bytes changed after its delete", share.name)
		}
	}
}

// The free list holds at most freeListCap bytes, however much leaves
// the tree at once. The tensors alias one buffer: only the accounting
// is under test, not the machine's memory.
func TestRecycleCapHolds(t *testing.T) {
	const size = 32 << 20
	fs := NewMemFS()
	data := make([]byte, size)
	const stored = freeListCap/size + 2
	for i := 0; i < stored; i++ {
		o := &owned{t: tensor.FromBytes(tensor.Uint8, data, size)}
		if err := fs.putOwned("/d/"+string(rune('a'+i)), o); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Delete("/d"); err != nil {
		t.Fatal(err)
	}
	if fs.free.bytes > freeListCap || len(fs.free.bufs[size]) != freeListCap/size {
		t.Fatalf("free list holds %d bytes in %d buffers after %d of %d bytes left the tree; cap %d",
			fs.free.bytes, len(fs.free.bufs[size]), stored, size, freeListCap)
	}
	if fs.owned != 0 {
		t.Fatalf("%d owned files counted in an empty tree", fs.owned)
	}
}

// Rebuilding a tensor of the same shape takes the buffer its previous
// version freed: the request allocates a few small records, never the
// payload.
func TestRecycleSameShapeAssembleAllocatesNoPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory counts as allocation")
	}
	srv := NewServer(NewMemFS())
	src := uniform(5, 256, 1024) // 256 KiB
	if err := srv.FS.PutTensor("/src", src); err != nil {
		t.Fatal(err)
	}
	items := []AssembleItem{{Path: "/dst", DType: tensor.Uint8, Shape: []int{256, 1024}, Fetch: []AssembleFetch{
		{Path: "/src", Reg: rows(0, 128, 1024), At: rows(0, 128, 1024)},
		{Path: "/src", Reg: rows(128, 256, 1024), At: rows(128, 256, 1024)}}}}
	run := func() {
		if _, err := srv.assemble(context.Background(), items); err != nil {
			t.Fatal(err)
		}
	}
	run() // the first build allocates; every later one frees the one before
	allocs := testing.AllocsPerRun(20, run)
	bytesPer := allocatedBy(func() {
		for i := 0; i < 20; i++ {
			run()
		}
	}) / 20
	// The request's own bookkeeping (its staging slice, its pull map, a
	// cancelable context) is 8 allocations and about 200 bytes.
	if bytesPer >= uint64(src.NumBytes())/16 || allocs > 10 {
		t.Fatalf("a same-shape assemble allocates %.0f times, %d bytes, for a %d-byte tensor", allocs, bytesPer, src.NumBytes())
	}
	got, err := srv.FS.GetTensor("/dst")
	if err != nil || !got.Equal(src) {
		t.Fatalf("the rebuilt tensor does not hold the source (err %v)", err)
	}
}

// Readers that stream owned tensors without the tree lock — /batch,
// /query, ReadRegionInto — see exactly the bytes that were stored when
// they pinned them, while a writer frees those tensors (Delete, a Rename
// over them, a PutTensor over them) and /upload, /upload-batch and
// /assemble take the freed buffers straight back. Every tensor is one
// byte value throughout, so a buffer reused under a reader shows as a
// response of two values; under -race the reuse is also a data race.
// The frame CRC cannot catch it: it is computed over what is sent.
func TestRecyclePinnedReadsSeeStoredBytes(t *testing.T) {
	a, b := newAssembleNode(t, nil), newAssembleNode(t, nil)
	ca := a.client(nil)
	shape := []int{128, 512} // 64 KiB: /batch streams it past the response buffer
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	var gen atomic.Uint32
	next := func() *tensor.Tensor { return uniform(byte(1+gen.Add(1)%255), shape...) }
	ctx := context.Background()

	done := make(chan struct{})
	var readers sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); readers.Wait() })
	defer stop()
	var reads atomic.Int64
	read := func(name string, fn func(path string, dst *tensor.Tensor) error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			dst := tensor.New(tensor.Uint8, shape...)
			for {
				select {
				case <-done:
					return
				default:
					runtime.Gosched() // on one P, leave the writer its turn
				}
				for _, path := range []string{"/x/t", "/y/t"} {
					clear(dst.Data())
					err := fn(path, dst)
					if err != nil && strings.Contains(err.Error(), "not found") {
						continue // between a delete and the next store
					}
					if err != nil {
						t.Errorf("%s %s: %v", name, path, err)
						return
					}
					if !isUniform(dst.Data()) {
						t.Errorf("%s %s: the response mixes bytes of two tensors", name, path)
						return
					}
					reads.Add(1)
				}
			}
		}()
	}
	half := []tensor.Region{rows(0, 64, 512), rows(64, 128, 512)}
	read("/batch", func(path string, dst *tensor.Tensor) error {
		_, err := ca.BatchQueryInto(ctx, []BatchEntry{
			{Path: path, Reg: half[0], Dst: dst, At: half[0]},
			{Path: path, Reg: half[1], Dst: dst, At: half[1]}})
		return err
	})
	read("/query", func(path string, dst *tensor.Tensor) error {
		got, err := ca.Query(path, nil)
		if err == nil {
			copy(dst.Data(), got.Data())
		}
		return err
	})
	read("ReadRegionInto", func(path string, dst *tensor.Tensor) error {
		_, err := a.srv.FS.ReadRegionInto(path, nil, dst, nil)
		return err
	})

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds && !t.Failed(); r++ {
		must(ca.Upload("/x/t", next()))
		must(a.srv.FS.Rename("/x", "/y")) // frees the /y/t before it
		b.put(t, "/src", next())
		_, err := ca.Assemble(ctx, []AssembleItem{{Path: "/x/t", DType: tensor.Uint8, Shape: shape,
			Fetch: []AssembleFetch{{Source: b.hs.URL, Path: "/src"}}}})
		must(err)
		must(a.srv.FS.PutTensor("/y/t", next())) // frees the uploaded one
		must(ca.UploadBatch(ctx, []UploadItem{{Path: "/y/t", View: next().FullView()}}))
		must(ca.Delete("/x")) // frees the assembled one
	}
	stop()
	if reads.Load() == 0 {
		t.Fatal("no read completed")
	}
	// The last Delete freed the assembled tensor, to the free list once
	// its last reader let go; /y/t, from the batch, is still the store's.
	if a.srv.FS.free.bytes == 0 || a.srv.FS.owned != 1 {
		t.Fatalf("free list holds %d bytes, %d owned files stored: want the freed tensor and /y/t",
			a.srv.FS.free.bytes, a.srv.FS.owned)
	}
}
