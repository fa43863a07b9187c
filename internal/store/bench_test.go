package store

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"tenplex/internal/tensor"
)

func BenchmarkMemFSPutGet(b *testing.B) {
	fs := NewMemFS()
	x := tensor.New(tensor.Float32, 256, 256)
	b.SetBytes(int64(x.NumBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/job/model/dev%d/w", i%16)
		if err := fs.PutTensor(path, x); err != nil {
			b.Fatal(err)
		}
		if _, err := fs.GetTensor(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemFSGetSlice(b *testing.B) {
	fs := NewMemFS()
	x := tensor.New(tensor.Float32, 1024, 1024)
	if err := fs.PutTensor("/w", x); err != nil {
		b.Fatal(err)
	}
	reg := tensor.Region{{Lo: 0, Hi: 1024}, {Lo: 128, Hi: 256}}
	b.SetBytes(reg.NumBytes(tensor.Float32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.GetSlice("/w", reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRESTRangeQuery(b *testing.B) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	x := tensor.New(tensor.Float32, 512, 512)
	if err := c.Upload("/w", x); err != nil {
		b.Fatal(err)
	}
	reg := tensor.Region{{Lo: 0, Hi: 512}, {Lo: 0, Hi: 64}}
	b.SetBytes(reg.NumBytes(tensor.Float32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query("/w", reg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemFSQueryInto measures the zero-copy local read path: the
// range lands in the caller's buffer with one strided copy and no
// allocation.
func BenchmarkMemFSQueryInto(b *testing.B) {
	l := Local{FS: NewMemFS()}
	x := tensor.New(tensor.Float32, 1024, 1024)
	if err := l.Upload("/w", x); err != nil {
		b.Fatal(err)
	}
	reg := tensor.Region{{Lo: 0, Hi: 1024}, {Lo: 128, Hi: 256}}
	dst := tensor.New(tensor.Float32, 1024, 128)
	b.SetBytes(reg.NumBytes(tensor.Float32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.QueryInto("/w", reg, dst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRESTQueryInto measures the streamed wire read: the response
// payload scatter-writes from the socket straight into the destination
// buffer.
func BenchmarkRESTQueryInto(b *testing.B) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	x := tensor.New(tensor.Float32, 512, 512)
	if err := c.Upload("/w", x); err != nil {
		b.Fatal(err)
	}
	reg := tensor.Region{{Lo: 0, Hi: 512}, {Lo: 0, Hi: 64}}
	dst := tensor.New(tensor.Float32, 512, 64)
	b.SetBytes(reg.NumBytes(tensor.Float32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.QueryInto("/w", reg, dst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRESTUpload(b *testing.B) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	x := tensor.New(tensor.Float32, 512, 512)
	b.SetBytes(int64(x.NumBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Upload("/w", x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchScatter is one POST /batch of 8 MiB landing in a
// contiguous destination and in strided ones whose runs are 256 bytes,
// 4 KiB and 16 KiB — the wire half of internal/tensor's kernel floor
// table. A strided destination's runs are served from the client's
// response window, one body Read per window; a run of directWriteSize
// or more skips the window and is read off the body straight into place.
// The rows price both, and are what that threshold was chosen on.
func BenchmarkBatchScatter(b *testing.B) {
	const payload = 8 << 20
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	for _, bc := range []struct {
		name    string
		run     int  // bytes per source row
		strided bool // rows land in every other half of a row twice as wide
	}{
		{"contiguous", 256, false},
		{"strided", 256, true},
		{"strided-4KiB", 4 << 10, true},
		{"strided-16KiB", 16 << 10, true},
	} {
		rows, cols := payload/bc.run, bc.run/4
		x := tensor.New(tensor.Float32, rows, cols)
		x.FillRandDense(1, 1)
		if err := c.Upload("/w", x); err != nil {
			b.Fatal(err)
		}
		dst, at := tensor.New(tensor.Float32, rows, cols), tensor.Region(nil)
		if bc.strided {
			dst = tensor.New(tensor.Float32, rows, 2*cols)
			at = tensor.Region{{Lo: 0, Hi: rows}, {Lo: cols / 2, Hi: cols/2 + cols}}
		}
		b.Run(bc.name, func(b *testing.B) {
			entries := []BatchEntry{{Path: "/w", Dst: dst, At: at}}
			b.SetBytes(payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.BatchQueryInto(context.Background(), entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSingleVsOneEntryBatch is the measurement ROADMAP item 6(b)
// asked for before /query and /upload could become one-entry batches:
// the single-tensor call against a batch of one, both directions, at
// three transfer sizes (the strided case uploads through UploadFrom, a
// whole tensor through Upload). The batch pays its frame CRC and framing
// on every byte, so it loses once a transfer is large; only the strided
// read comes out ahead (numbers in EXPERIMENTS.md "The datapath
// suite"), so /query and /upload stay.
func BenchmarkSingleVsOneEntryBatch(b *testing.B) {
	srv := NewServer(NewMemFS())
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &Client{Base: hs.URL, HTTP: hs.Client()}
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		src  *tensor.Tensor
		reg  tensor.Region // nil: the whole tensor
	}{
		{"9KiB", tensor.New(tensor.Float32, 36, 64), nil},
		{"128KiB-of-1MiB", tensor.New(tensor.Float32, 1024, 256), tensor.Region{{Lo: 0, Hi: 1024}, {Lo: 64, Hi: 96}}},
		{"8MiB", tensor.New(tensor.Float32, 2048, 1024), nil},
	} {
		bc.src.FillRandDense(1, 1)
		if err := c.Upload("/w", bc.src); err != nil {
			b.Fatal(err)
		}
		view := bc.src.FullView()
		if bc.reg != nil {
			view = bc.src.View(bc.reg)
		}
		dst := tensor.New(tensor.Float32, view.Shape()...)
		run := func(op string, fn func() error) {
			b.Run(bc.name+"/"+op, func(b *testing.B) {
				b.SetBytes(int64(view.NumBytes()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("query", func() error {
			_, err := c.QueryIntoContext(ctx, "/w", bc.reg, dst, nil)
			return err
		})
		run("batch-of-1", func() error {
			_, err := c.BatchQueryInto(ctx, []BatchEntry{{Path: "/w", Reg: bc.reg, Dst: dst}})
			return err
		})
		run("upload", func() error {
			if bc.reg == nil {
				return c.UploadContext(ctx, "/up", bc.src)
			}
			return c.UploadFromContext(ctx, "/up", tensor.Float32, view.Shape(), view.Reader())
		})
		run("upload-batch-of-1", func() error {
			return c.UploadBatch(ctx, []UploadItem{{Path: "/up", View: view}})
		})
	}
}
