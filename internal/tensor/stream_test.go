package tensor

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// randRegion draws a random non-empty sub-region of shape.
func randRegion(rng *rand.Rand, shape []int) Region {
	reg := make(Region, len(shape))
	for i, d := range shape {
		lo := rng.Intn(d)
		hi := lo + 1 + rng.Intn(d-lo)
		reg[i] = Range{lo, hi}
	}
	return reg
}

func TestViewWriteToMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{16}, {4, 8}, {3, 5, 7}, {2, 3, 4, 5}, {1, 9}}
	for _, shape := range shapes {
		src := New(Float32, shape...)
		src.FillSeq(0, 1)
		for trial := 0; trial < 50; trial++ {
			reg := randRegion(rng, shape)
			var buf bytes.Buffer
			n, err := src.View(reg).WriteTo(&buf)
			if err != nil {
				t.Fatalf("shape %v reg %v: %v", shape, reg, err)
			}
			want := src.Slice(reg)
			if n != int64(want.NumBytes()) || !bytes.Equal(buf.Bytes(), want.Data()) {
				t.Fatalf("shape %v reg %v: streamed %d bytes != sliced payload", shape, reg, n)
			}
		}
	}
}

func TestViewContiguous(t *testing.T) {
	src := New(Float32, 4, 6)
	src.FillSeq(0, 1)
	cases := []struct {
		reg  Region
		want bool
	}{
		{Region{{0, 4}, {0, 6}}, true},  // full
		{Region{{1, 3}, {0, 6}}, true},  // leading-dim slice
		{Region{{2, 3}, {1, 4}}, true},  // single row segment
		{Region{{0, 4}, {1, 4}}, false}, // strided columns
		{Region{{1, 3}, {2, 6}}, false},
	}
	for _, c := range cases {
		b, ok := src.View(c.reg).Contiguous()
		if ok != c.want {
			t.Fatalf("reg %v: contiguous=%v, want %v", c.reg, ok, c.want)
		}
		if ok && !bytes.Equal(b, src.Slice(c.reg).Data()) {
			t.Fatalf("reg %v: contiguous bytes differ from slice", c.reg)
		}
	}
	// Contiguous views alias the backing buffer: no copy.
	b, _ := src.View(Region{{1, 3}, {0, 6}}).Contiguous()
	b[0] ^= 0xff
	if src.Data()[6*4] != b[0] {
		t.Fatal("contiguous view does not alias the backing buffer")
	}
}

func TestViewReadAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := New(Uint8, 7, 9, 5)
	src.FillSeq(0, 1)
	for trial := 0; trial < 60; trial++ {
		reg := randRegion(rng, []int{7, 9, 5})
		v := src.View(reg)
		want := src.Slice(reg).Data()
		// Random offset/length probes.
		for probe := 0; probe < 8; probe++ {
			off := rng.Intn(len(want))
			ln := 1 + rng.Intn(len(want)-off)
			p := make([]byte, ln)
			n, err := v.ReadAt(p, int64(off))
			if err != nil && err != io.EOF {
				t.Fatalf("reg %v ReadAt(%d,%d): %v", reg, off, ln, err)
			}
			if n != ln || !bytes.Equal(p, want[off:off+ln]) {
				t.Fatalf("reg %v ReadAt(%d,%d): got %d bytes, mismatch", reg, off, ln, n)
			}
		}
		// Sequential Reader round trip.
		got, err := io.ReadAll(v.Reader())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("reg %v: Reader payload mismatch", reg)
		}
	}
}

func TestWriteRegionScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := [][]int{{12}, {5, 7}, {3, 4, 6}}
	for _, shape := range shapes {
		for trial := 0; trial < 60; trial++ {
			reg := randRegion(rng, shape)
			payload := make([]byte, reg.NumBytes(Float32))
			rng.Read(payload)

			// Reference: decode payload into a sub-tensor and SetSlice it.
			want := New(Float32, shape...)
			want.FillSeq(100, 1)
			sub := New(Float32, reg.Shape()...)
			copy(sub.Data(), payload)
			want.SetSlice(reg, sub)

			got := New(Float32, shape...)
			got.FillSeq(100, 1)
			// Feed the payload in awkward small chunks to exercise ReadFull.
			n, err := got.WriteRegion(reg, iotest(payload, 3))
			if err != nil {
				t.Fatalf("shape %v reg %v: %v", shape, reg, err)
			}
			if n != int64(len(payload)) {
				t.Fatalf("shape %v reg %v: consumed %d of %d bytes", shape, reg, n, len(payload))
			}
			if !got.Equal(want) {
				t.Fatalf("shape %v reg %v: scatter-write mismatch", shape, reg)
			}
		}
	}
}

// iotest returns a reader that yields p in chunks of at most n bytes.
func iotest(p []byte, n int) io.Reader { return &chunkReader{p: p, n: n} }

type chunkReader struct {
	p []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.p) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.p) {
		n = len(c.p)
	}
	copy(p, c.p[:n])
	c.p = c.p[n:]
	return n, nil
}

func TestWriteRegionShortStream(t *testing.T) {
	dst := New(Float32, 4, 4)
	reg := Region{{0, 2}, {1, 3}}
	short := make([]byte, reg.NumBytes(Float32)-3)
	if _, err := dst.WriteRegion(reg, bytes.NewReader(short)); err == nil {
		t.Fatal("short payload must error")
	}
}

func TestCopyRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := New(Float32, 6, 8)
	src.FillSeq(0, 1)
	for trial := 0; trial < 50; trial++ {
		reg := randRegion(rng, []int{6, 8})
		dst := New(Float32, 10, 12)
		at := Region{
			{1, 1 + reg[0].Len()},
			{2, 2 + reg[1].Len()},
		}
		n, err := CopyRegion(dst, at, src, reg)
		if err != nil {
			t.Fatal(err)
		}
		if n != reg.NumBytes(Float32) {
			t.Fatalf("copied %d bytes, want %d", n, reg.NumBytes(Float32))
		}
		if !dst.Slice(at).Equal(src.Slice(reg)) {
			t.Fatalf("reg %v: CopyRegion mismatch", reg)
		}
	}
	// Mismatched shapes and dtypes are rejected.
	if _, err := CopyRegion(New(Float32, 2, 2), FullRegion([]int{2, 2}), src, Region{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := CopyRegion(New(Float64, 2, 2), FullRegion([]int{2, 2}), src, Region{{0, 2}, {0, 2}}); err == nil {
		t.Fatal("dtype mismatch accepted")
	}
}

func TestViewEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := New(Float64, 5, 6, 4)
	src.FillRand(1, 10)
	for trial := 0; trial < 40; trial++ {
		reg := randRegion(rng, []int{5, 6, 4})
		v := src.View(reg)
		var buf bytes.Buffer
		n, err := v.Encode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if int(n) != v.EncodedSize() || buf.Len() != v.EncodedSize() {
			t.Fatalf("reg %v: encoded %d bytes, want %d", reg, n, v.EncodedSize())
		}
		// The streamed encoding is byte-identical to the materialized one.
		if !bytes.Equal(buf.Bytes(), src.Slice(reg).Encode()) {
			t.Fatalf("reg %v: streamed encoding differs from Encode", reg)
		}
		// And decodes back, both ways.
		got, err := ReadFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(src.Slice(reg)) {
			t.Fatalf("reg %v: decode mismatch", reg)
		}
		got2, err := DecodeFrom(iotest(buf.Bytes(), 5))
		if err != nil {
			t.Fatal(err)
		}
		if !got2.Equal(got) {
			t.Fatalf("reg %v: DecodeFrom mismatch", reg)
		}
	}
}

func TestDecodeHeaderFrom(t *testing.T) {
	x := New(Int32, 3, 4)
	x.FillSeq(0, 1)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dt, shape, err := DecodeHeaderFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dt != Int32 || !ShapeEqual(shape, []int{3, 4}) {
		t.Fatalf("header = %s %v", dt, shape)
	}
	// Remaining bytes are exactly the payload; scatter them into a
	// destination at an offset.
	dst := New(Int32, 6, 8)
	at := Region{{2, 5}, {1, 5}}
	if _, err := dst.WriteRegion(at, &buf); err != nil {
		t.Fatal(err)
	}
	if !dst.Slice(at).Equal(x) {
		t.Fatal("header+WriteRegion pipeline corrupted payload")
	}
	// Garbage header is rejected.
	if _, _, err := DecodeHeaderFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRegionShift(t *testing.T) {
	g := Region{{2, 4}, {0, 3}}
	shifted := g.Shift([]int{10, 5})
	if !shifted.Equal(Region{{12, 14}, {5, 8}}) {
		t.Fatalf("Shift = %v", shifted)
	}
	if !shifted.Translate([]int{10, 5}).Equal(g) {
		t.Fatal("Shift is not the inverse of Translate")
	}
}
