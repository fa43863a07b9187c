package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"tenplex/internal/tensor"
)

func seq(shape ...int) *tensor.Tensor {
	t := tensor.New(tensor.Float64, shape...)
	t.FillSeq(0, 1)
	return t
}

func TestPutGetTensor(t *testing.T) {
	fs := NewMemFS()
	x := seq(3, 4)
	if err := fs.PutTensor("/job/model/dev0/block.0/attn/qkv/weight", x); err != nil {
		t.Fatal(err)
	}
	got, err := fs.GetTensor("/job/model/dev0/block.0/attn/qkv/weight")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x) {
		t.Fatal("roundtrip mismatch")
	}
	if _, err := fs.GetTensor("/job/model/dev0/nope"); err == nil {
		t.Fatal("missing file found")
	}
	if _, err := fs.GetTensor("/job/missing/dir"); err == nil {
		t.Fatal("missing dir found")
	}
}

func TestGetSlice(t *testing.T) {
	fs := NewMemFS()
	x := seq(4, 6)
	if err := fs.PutTensor("/w", x); err != nil {
		t.Fatal(err)
	}
	reg := tensor.Region{{Lo: 1, Hi: 3}, {Lo: 2, Hi: 5}}
	got, err := fs.GetSlice("/w", reg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x.Slice(reg)) {
		t.Fatal("slice mismatch")
	}
	if _, err := fs.GetSlice("/w", tensor.Region{{Lo: 0, Hi: 9}, {Lo: 0, Hi: 6}}); err == nil {
		t.Fatal("out-of-bounds slice accepted")
	}
}

func TestBlobs(t *testing.T) {
	fs := NewMemFS()
	data := []byte(`{"step": 42}`)
	if err := fs.PutBlob("/job/checkpoint/meta.json", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.GetBlob("/job/checkpoint/meta.json")
	if err != nil || string(got) != string(data) {
		t.Fatalf("blob roundtrip: %q, %v", got, err)
	}
	// Mutating the returned copy must not affect the store.
	got[0] = 'X'
	again, _ := fs.GetBlob("/job/checkpoint/meta.json")
	if string(again) != string(data) {
		t.Fatal("GetBlob aliases internal storage")
	}
	// Type confusion errors.
	if _, err := fs.GetTensor("/job/checkpoint/meta.json"); err == nil {
		t.Fatal("blob read as tensor")
	}
	if err := fs.PutTensor("/t", seq(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetBlob("/t"); err == nil {
		t.Fatal("tensor read as blob")
	}
}

func TestStat(t *testing.T) {
	fs := NewMemFS()
	_ = fs.PutTensor("/a/t", seq(2, 3))
	_ = fs.PutBlob("/a/b", []byte("xyz"))
	st, err := fs.Stat("/a/t")
	if err != nil || st.IsBlob || st.DType != tensor.Float64 || st.Bytes != 48 {
		t.Fatalf("tensor stat = %+v, %v", st, err)
	}
	sb, err := fs.Stat("/a/b")
	if err != nil || !sb.IsBlob || sb.Bytes != 3 {
		t.Fatalf("blob stat = %+v, %v", sb, err)
	}
	if _, err := fs.Stat("/a/missing"); err == nil {
		t.Fatal("missing stat")
	}
}

func TestListAndDelete(t *testing.T) {
	fs := NewMemFS()
	_ = fs.PutTensor("/job/model/dev0/w", seq(2))
	_ = fs.PutTensor("/job/model/dev1/w", seq(2))
	_ = fs.PutBlob("/job/meta", []byte("m"))

	names, err := fs.List("/job")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "meta" || names[1] != "model/" {
		t.Fatalf("List(/job) = %v", names)
	}
	root, err := fs.List("/")
	if err != nil || len(root) != 1 || root[0] != "job/" {
		t.Fatalf("List(/) = %v, %v", root, err)
	}
	if err := fs.Delete("/job/model/dev0"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetTensor("/job/model/dev0/w"); err == nil {
		t.Fatal("deleted subtree still readable")
	}
	if _, err := fs.GetTensor("/job/model/dev1/w"); err != nil {
		t.Fatal("sibling deleted too")
	}
	if err := fs.Delete("/job/model/dev0"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestRename(t *testing.T) {
	fs := NewMemFS()
	_ = fs.PutTensor("/job/model.next/dev0/w", seq(3))
	_ = fs.PutTensor("/job/model/dev0/w", seq(5)) // old state to overwrite
	if err := fs.Rename("/job/model.next", "/job/model"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.GetTensor("/job/model/dev0/w")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumElems() != 3 {
		t.Fatal("rename did not replace old tree")
	}
	if _, err := fs.List("/job/model.next"); err == nil {
		t.Fatal("source of rename still present")
	}
	// File rename.
	_ = fs.PutBlob("/x", []byte("1"))
	if err := fs.Rename("/x", "/y/z"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetBlob("/y/z"); err != nil {
		t.Fatal("file rename lost data")
	}
	if err := fs.Rename("/missing", "/m"); err == nil {
		t.Fatal("rename of missing path succeeded")
	}
}

func TestWalkAndTotalBytes(t *testing.T) {
	fs := NewMemFS()
	_ = fs.PutTensor("/a/t1", seq(2))    // 16 bytes
	_ = fs.PutTensor("/a/b/t2", seq(3))  // 24 bytes
	_ = fs.PutBlob("/c", []byte("1234")) // 4 bytes

	var paths []string
	err := fs.Walk("/", func(p string, st Stat) error {
		paths = append(paths, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/a/b/t2", "/a/t1", "/c"}
	if len(paths) != 3 {
		t.Fatalf("Walk = %v", paths)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("Walk order = %v, want %v", paths, want)
		}
	}
	if got := fs.TotalBytes(); got != 44 {
		t.Fatalf("TotalBytes = %d", got)
	}
	// Walk a subtree.
	paths = nil
	_ = fs.Walk("/a", func(p string, _ Stat) error { paths = append(paths, p); return nil })
	if len(paths) != 2 {
		t.Fatalf("Walk(/a) = %v", paths)
	}
	if err := fs.Walk("/nope", func(string, Stat) error { return nil }); err == nil {
		t.Fatal("walk of missing dir succeeded")
	}
}

func TestPathValidation(t *testing.T) {
	fs := NewMemFS()
	for _, bad := range []string{"", "/", "//", "/a/../b", "/./x"} {
		if err := fs.PutTensor(bad, seq(1)); err == nil {
			t.Errorf("PutTensor(%q) accepted", bad)
		}
	}
	// A file cannot become a directory.
	_ = fs.PutTensor("/a", seq(1))
	if err := fs.PutTensor("/a/b", seq(1)); err == nil {
		t.Fatal("file used as directory")
	}
	// A directory cannot be overwritten by a file.
	_ = fs.PutTensor("/d/x", seq(1))
	if err := fs.PutTensor("/d", seq(1)); err == nil {
		t.Fatal("directory overwritten by file")
	}
}

func TestConcurrentAccess(t *testing.T) {
	fs := NewMemFS()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/w/%d/t", i)
			x := seq(8, 8)
			for k := 0; k < 20; k++ {
				if err := fs.PutTensor(path, x); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := fs.GetSlice(path, tensor.Region{{Lo: 2, Hi: 6}, {Lo: 0, Hi: 8}})
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if got.NumElems() != 32 {
					t.Errorf("bad slice size")
					return
				}
				_, _ = fs.List("/w")
			}
		}(i)
	}
	wg.Wait()
	if fs.TotalBytes() != n*8*8*8 {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
	}
}

// WithContext hands back an in-process store's context-taking method set
// without allocating: the transformer asks for it once per range it
// moves.
func TestWithContextOverLocalAllocatesNothing(t *testing.T) {
	var acc Access = Local{FS: NewMemFS()}
	var ca ContextAccess
	if n := testing.AllocsPerRun(100, func() { ca = WithContext(acc) }); n != 0 {
		t.Fatalf("WithContext over a Local made %v allocations, want 0", n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ca.DeleteContext(ctx, "/x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("a canceled context reached the plain call: error %v", err)
	}
}
