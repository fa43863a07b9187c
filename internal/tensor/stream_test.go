package tensor

import (
	"bytes"
	"errors"
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

// walkCases are the regions every test of the walker's users runs over
// besides its random ones: ranks 0 to 6, size-1 dimensions, and trailing
// dimensions covered whole (one run, or runs merged across dimensions)
// or not.
var walkCases = []struct {
	shape []int
	reg   Region
}{
	{nil, Region{}},
	{[]int{1}, Region{{0, 1}}},
	{[]int{5}, Region{{1, 4}}},
	{[]int{1, 1, 1}, Region{{0, 1}, {0, 1}, {0, 1}}},
	{[]int{3, 1, 4}, Region{{1, 3}, {0, 1}, {0, 4}}},
	{[]int{4, 3, 5}, Region{{1, 3}, {0, 3}, {0, 5}}},
	{[]int{4, 3, 5}, Region{{0, 4}, {1, 2}, {0, 5}}},
	{[]int{4, 3, 5}, Region{{0, 4}, {0, 3}, {2, 4}}},
	{[]int{2, 3, 1, 4}, Region{{0, 2}, {1, 3}, {0, 1}, {1, 3}}},
	{[]int{2, 1, 3, 2, 2}, Region{{1, 2}, {0, 1}, {0, 3}, {0, 2}, {1, 2}}},
	{[]int{2, 2, 1, 3, 1, 2}, Region{{0, 2}, {1, 2}, {0, 1}, {0, 2}, {0, 1}, {0, 2}}},
	{[]int{1, 2, 3, 1, 2, 3}, Region{{0, 1}, {0, 2}, {0, 3}, {0, 1}, {0, 2}, {0, 3}}},
}

// elemOffsets lists the byte offset, in a tensor shaped shape, of every
// element of reg in row-major order: the reference the walker's users
// are held to, worked out an element at a time from its coordinates.
func elemOffsets(shape []int, reg Region, es int) []int {
	offs := make([]int, reg.NumElems())
	for i := range offs {
		rest, stride := i, es
		for d := len(reg) - 1; d >= 0; d-- {
			offs[i] += (reg[d].Lo + rest%reg[d].Len()) * stride
			rest /= reg[d].Len()
			stride *= shape[d]
		}
	}
	return offs
}

// regionBytes gathers reg's payload out of t an element at a time.
func regionBytes(t *Tensor, reg Region) []byte {
	es := t.dtype.Size()
	var out []byte
	for _, off := range elemOffsets(t.shape, reg, es) {
		out = append(out, t.data[off:off+es]...)
	}
	return out
}

// padded returns a shape that holds reg's shape with room around it in
// every dimension, and where reg lands in it.
func padded(rng *rand.Rand, reg Region) ([]int, Region) {
	shape, at := make([]int, len(reg)), make(Region, len(reg))
	for d := range reg {
		lo := rng.Intn(3)
		shape[d] = lo + reg[d].Len() + rng.Intn(3)
		at[d] = Range{lo, lo + reg[d].Len()}
	}
	return shape, at
}

func TestViewWriteToMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(shape []int, reg Region) {
		t.Helper()
		src := New(Float32, shape...)
		src.FillSeq(0, 1)
		var buf bytes.Buffer
		n, err := src.View(reg).WriteTo(&buf)
		if err != nil {
			t.Fatalf("shape %v reg %v: %v", shape, reg, err)
		}
		want := regionBytes(src, reg)
		if n != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) || !bytes.Equal(want, src.Slice(reg).Data()) {
			t.Fatalf("shape %v reg %v: streamed %d bytes != sliced payload", shape, reg, n)
		}
	}
	for _, c := range walkCases {
		check(c.shape, c.reg)
	}
	shapes := [][]int{{16}, {4, 8}, {3, 5, 7}, {2, 3, 4, 5}, {1, 9}}
	for _, shape := range shapes {
		for trial := 0; trial < 50; trial++ {
			check(shape, randRegion(rng, shape))
		}
	}
}

func TestViewReadAt(t *testing.T) {
	// Every offset of the table's views, so every run boundary, every
	// point inside a run and inside an element, read to the end, a byte,
	// and across the next boundary.
	for _, c := range walkCases {
		src := New(Float32, c.shape...)
		src.FillSeq(0, 1)
		v, want := src.View(c.reg), regionBytes(src, c.reg)
		for off := range want {
			for _, ln := range []int{len(want) - off, 1, min(7, len(want)-off)} {
				p := make([]byte, ln)
				if n, err := v.ReadAt(p, int64(off)); n != ln || (err != nil && err != io.EOF) || !bytes.Equal(p, want[off:off+ln]) {
					t.Fatalf("shape %v reg %v ReadAt(%d,%d) = %d, %v: mismatch", c.shape, c.reg, off, ln, n, err)
				}
			}
		}
		if n, err := v.ReadAt(make([]byte, 1), int64(len(want))); n != 0 || err != io.EOF {
			t.Fatalf("shape %v reg %v: ReadAt past the end = %d, %v", c.shape, c.reg, n, err)
		}
		if n, err := v.ReadAt(make([]byte, len(want)+1), 0); n != len(want) || err != io.EOF {
			t.Fatalf("shape %v reg %v: ReadAt over the end = %d, %v", c.shape, c.reg, n, err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	src := New(Uint8, 7, 9, 5)
	src.FillSeq(0, 1)
	for trial := 0; trial < 60; trial++ {
		reg := randRegion(rng, []int{7, 9, 5})
		v := src.View(reg)
		want := regionBytes(src, reg)
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
	check := func(shape []int, reg Region) {
		t.Helper()
		payload := make([]byte, reg.NumBytes(Float32))
		rng.Read(payload)

		// Reference: the payload put an element at a time at the offsets
		// of the region's elements.
		want := New(Float32, shape...)
		want.FillSeq(100, 1)
		for i, off := range elemOffsets(shape, reg, 4) {
			copy(want.data[off:off+4], payload[4*i:])
		}

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
	for _, c := range walkCases {
		check(c.shape, c.reg)
	}
	shapes := [][]int{{12}, {5, 7}, {3, 4, 6}}
	for _, shape := range shapes {
		for trial := 0; trial < 60; trial++ {
			check(shape, randRegion(rng, shape))
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
	// check copies reg of a tensor shaped shape to at of one shaped
	// dstShape and holds the result to an element-at-a-time copy.
	check := func(shape []int, reg Region, dstShape []int, at Region) {
		t.Helper()
		src := New(Float32, shape...)
		src.FillSeq(1, 1)
		dst, want := New(Float32, dstShape...), New(Float32, dstShape...)
		dstOffs := elemOffsets(dstShape, at, 4)
		for i, off := range elemOffsets(shape, reg, 4) {
			copy(want.data[dstOffs[i]:dstOffs[i]+4], src.data[off:off+4])
		}
		n, err := CopyRegion(dst, at, src, reg)
		if err != nil {
			t.Fatal(err)
		}
		if n != reg.NumBytes(Float32) {
			t.Fatalf("copied %d bytes, want %d", n, reg.NumBytes(Float32))
		}
		if !dst.Equal(want) {
			t.Fatalf("reg %v of %v to %v of %v: CopyRegion mismatch", reg, shape, at, dstShape)
		}
	}
	for _, c := range walkCases {
		// Into a padded tensor, into one it fills whole, and from one it
		// fills whole: runs merge on one side only, or on neither.
		dstShape, at := padded(rng, c.reg)
		check(c.shape, c.reg, dstShape, at)
		check(c.shape, c.reg, c.reg.Shape(), FullRegion(c.reg.Shape()))
		check(c.reg.Shape(), FullRegion(c.reg.Shape()), dstShape, at)
	}
	for trial := 0; trial < 50; trial++ {
		reg := randRegion(rng, []int{6, 8})
		at := Region{
			{1, 1 + reg[0].Len()},
			{2, 2 + reg[1].Len()},
		}
		check([]int{6, 8}, reg, []int{10, 12}, at)
	}
	src := New(Float32, 6, 8)
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
		got, err := decode(buf.Bytes())
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

// TestWalkUsersAllocateNothing: every user of the run walker walks a
// strided region without a heap allocation.
func TestWalkUsersAllocateNothing(t *testing.T) {
	src := New(Float32, 8, 6, 5)
	src.FillSeq(0, 1)
	reg := Region{{1, 7}, {2, 5}, {1, 4}}
	dst, payload := NewFromRegion(Float32, reg), regionBytes(src, reg)
	whole, v, p := FullRegion(dst.shape), src.View(reg), make([]byte, 17)
	rd, w := bytes.NewReader(nil), &sliceWriter{buf: make([]byte, len(payload))}
	r := RandDense{DType: Float32, Shape: src.shape, Seed: 1, Scale: 1}
	filled := NewFromRegion(Float32, reg)
	if err := r.FillRegion(reg, filled, nil); err != nil {
		t.Fatal(err)
	}
	var err error
	for name, op := range map[string]func(){
		"CopyRegion":   func() { _, err = CopyRegion(dst, whole, src, reg) },
		"View.WriteTo": func() { w.n = 0; _, err = v.WriteTo(w) },
		"View.ReadAt":  func() { _, err = v.ReadAt(p, 23) },
		"WriteRegion":  func() { rd.Reset(payload); _, err = src.WriteRegion(reg, rd) },
		"FillRegion":   func() { err = r.FillRegion(reg, dst, nil) },
		"EqualRegion": func() {
			if !r.EqualRegion(reg, filled) {
				err = errors.New("EqualRegion refuses what FillRegion wrote")
			}
		},
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 || err != nil {
			t.Errorf("%s allocates %.1f times a call (err %v)", name, n, err)
		}
	}
}
