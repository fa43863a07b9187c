package tensor

import (
	"fmt"
	"io"
)

// This file implements the zero-copy data path of the Tensor Store: a
// read-only View over a region of a tensor's backing buffer (range
// reads without materializing a sub-tensor) and WriteRegion, which
// scatter-writes an incoming byte stream directly into a destination
// tensor's buffer at the right strides. Together they let a byte flow
// from the source holder's buffer to its final destination offset
// exactly once, whether the hop is an in-process copy or an HTTP body.

// runs describes the contiguous byte runs a region occupies inside a
// tensor's row-major backing buffer: `count` runs of `size` bytes each,
// the first starting at byte offset `first`, successive run offsets
// produced by an odometer over the outer dimensions.
type runs struct {
	t     *Tensor
	reg   Region
	size  int // bytes per contiguous run
	count int // number of runs
}

func regionRuns(t *Tensor, reg Region) runs {
	rank := len(reg)
	if rank == 0 { // scalar
		return runs{t: t, reg: reg, size: len(t.data), count: 1}
	}
	es := t.dtype.Size()
	size := reg[rank-1].Len() * es
	count := 1
	for d := 0; d < rank-1; d++ {
		count *= reg[d].Len()
	}
	return runs{t: t, reg: reg, size: size, count: count}
}

// maxStreamRank bounds the stack scratch of the run iterators; it
// matches the rank cap the wire codec enforces.
const maxStreamRank = 16

// forEach calls fn with the byte offset of every run, in row-major
// order. fn returning false stops the iteration. The iterator keeps its
// odometer and strides on the stack, so iterating allocates nothing.
func (rs runs) forEach(fn func(off int) bool) {
	rank := len(rs.reg)
	if rank == 0 {
		fn(0)
		return
	}
	if rank > maxStreamRank {
		panic(fmt.Sprintf("tensor: rank %d exceeds streaming cap %d", rank, maxStreamRank))
	}
	es := rs.t.dtype.Size()
	var strides, idx [maxStreamRank]int
	acc := 1
	for d := rank - 1; d >= 0; d-- {
		strides[d] = acc
		acc *= rs.t.shape[d]
	}
	for {
		off := rs.reg[rank-1].Lo * strides[rank-1]
		for d := 0; d < rank-1; d++ {
			off += (rs.reg[d].Lo + idx[d]) * strides[d]
		}
		if !fn(off * es) {
			return
		}
		d := rank - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < rs.reg[d].Len() {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// contiguous reports whether the region occupies one gapless byte span
// of the backing buffer and, if so, returns its start offset in bytes.
// A region is gapless iff every dimension before the last partially-
// covered one selects a single index.
func (rs runs) contiguous() (int, bool) {
	rank := len(rs.reg)
	if rank == 0 {
		return 0, true
	}
	last := -1 // last dimension not covering its full extent
	for d := 0; d < rank; d++ {
		if rs.reg[d].Len() != rs.t.shape[d] {
			last = d
		}
	}
	for d := 0; d < last; d++ {
		if rs.reg[d].Len() != 1 {
			return 0, false
		}
	}
	// The start offset, accumulated innermost dimension first so the
	// strides need no slice of their own.
	off, stride := 0, 1
	for d := rank - 1; d >= 0; d-- {
		off += rs.reg[d].Lo * stride
		stride *= rs.t.shape[d]
	}
	return off * rs.t.dtype.Size(), true
}

// View is a read-only window over the region reg of a tensor. It
// aliases the tensor's backing buffer — no bytes are copied — and
// streams or random-accesses the region's payload in row-major order.
// The underlying tensor must not be mutated while views of it are live;
// tensors held by the store are replaced, never mutated, so store reads
// may hand out views freely.
type View struct {
	t   *Tensor
	reg Region
}

// View creates a read-only view over reg. It panics on an invalid
// region, mirroring Slice.
func (t *Tensor) View(reg Region) View {
	if !reg.Valid(t.shape) {
		panic(fmt.Sprintf("tensor: View region %v invalid for shape %v", reg, t.shape))
	}
	return View{t: t, reg: reg}
}

// FullView returns a view covering all of t.
func (t *Tensor) FullView() View { return View{t: t, reg: FullRegion(t.shape)} }

// Whole returns the viewed tensor itself, and whether v covers all of it.
func (v View) Whole() (*Tensor, bool) { return v.t, v.NumBytes() == v.t.NumBytes() }

// DType returns the element type of the viewed tensor.
func (v View) DType() DType { return v.t.dtype }

// Region returns the viewed region.
func (v View) Region() Region { return v.reg.Clone() }

// Shape returns the per-dimension lengths of the view.
func (v View) Shape() []int { return v.reg.Shape() }

// Rank returns the number of dimensions of the view.
func (v View) Rank() int { return len(v.reg) }

// NumBytes returns the payload size of the view.
func (v View) NumBytes() int { return v.reg.NumElems() * v.t.dtype.Size() }

// Contiguous returns the aliased byte range when the region occupies
// one gapless span of the backing buffer (always true for full views
// and for leading-dimension slices), and ok=false otherwise.
func (v View) Contiguous() ([]byte, bool) {
	rs := regionRuns(v.t, v.reg)
	start, ok := rs.contiguous()
	if !ok {
		return nil, false
	}
	return v.t.data[start : start+rs.size*rs.count], true
}

// WriteTo streams the view's payload (raw row-major element bytes) to
// w, reading straight out of the backing buffer.
func (v View) WriteTo(w io.Writer) (int64, error) {
	if b, ok := v.Contiguous(); ok {
		n, err := w.Write(b)
		return int64(n), err
	}
	rs := regionRuns(v.t, v.reg)
	var total int64
	var werr error
	rs.forEach(func(off int) bool {
		n, err := w.Write(v.t.data[off : off+rs.size])
		total += int64(n)
		if err != nil {
			werr = err
			return false
		}
		return true
	})
	return total, werr
}

// ReadAt implements io.ReaderAt over the view's payload: off indexes
// the row-major byte stream of the region, not the backing buffer.
func (v View) ReadAt(p []byte, off int64) (int, error) {
	total := int64(v.NumBytes())
	if off < 0 {
		return 0, fmt.Errorf("tensor: View.ReadAt negative offset %d", off)
	}
	if off >= total {
		return 0, io.EOF
	}
	rs := regionRuns(v.t, v.reg)
	read := 0
	pos := int64(0)
	rs.forEach(func(runOff int) bool {
		runEnd := pos + int64(rs.size)
		if runEnd <= off {
			pos = runEnd
			return true
		}
		skip := int64(0)
		if off > pos {
			skip = off - pos
		}
		n := copy(p[read:], v.t.data[runOff+int(skip):runOff+rs.size])
		read += n
		pos = runEnd
		return read < len(p)
	})
	if read < len(p) && off+int64(read) >= total {
		return read, io.EOF
	}
	return read, nil
}

// Reader returns a sequential io.Reader over the view's payload. The
// reader also implements io.WriterTo, so io.Copy streams runs directly
// from the backing buffer without an intermediate buffer.
func (v View) Reader() io.Reader { return &viewReader{v: v} }

type viewReader struct {
	v   View
	pos int64
}

func (r *viewReader) Read(p []byte) (int, error) {
	n, err := r.v.ReadAt(p, r.pos)
	r.pos += int64(n)
	return n, err
}

func (r *viewReader) WriteTo(w io.Writer) (int64, error) {
	if r.pos != 0 {
		// Mid-stream WriteTo: fall back to copying the remainder.
		n, err := io.Copy(w, io.LimitReader(struct{ io.Reader }{r}, int64(r.v.NumBytes())-r.pos))
		return n, err
	}
	n, err := r.v.WriteTo(w)
	r.pos += n
	return n, err
}

// Materialize copies the view out into an independent tensor; it is
// equivalent to Slice and exists for callers that must own the bytes.
func (v View) Materialize() *Tensor { return v.t.Slice(v.reg) }

// WriteRegion scatter-writes exactly reg.NumBytes(t.DType()) bytes from
// r into the sub-region reg of t: each contiguous run of the region is
// filled directly from the stream, so incoming bytes land at their
// final strided offsets without an intermediate tensor. It returns the
// number of payload bytes consumed from r.
func (t *Tensor) WriteRegion(reg Region, r io.Reader) (int64, error) {
	if !reg.Valid(t.shape) {
		return 0, fmt.Errorf("tensor: WriteRegion region %v invalid for shape %v", reg, t.shape)
	}
	rs := regionRuns(t, reg)
	if b, ok := func() ([]byte, bool) {
		start, ok := rs.contiguous()
		if !ok {
			return nil, false
		}
		return t.data[start : start+rs.size*rs.count], true
	}(); ok {
		n, err := io.ReadFull(r, b)
		if err != nil {
			return int64(n), fmt.Errorf("tensor: WriteRegion: %w", err)
		}
		return int64(n), nil
	}
	var total int64
	var rerr error
	rs.forEach(func(off int) bool {
		n, err := io.ReadFull(r, t.data[off:off+rs.size])
		total += int64(n)
		if err != nil {
			rerr = fmt.Errorf("tensor: WriteRegion: %w", err)
			return false
		}
		return true
	})
	return total, rerr
}

// CopyRegion copies srcReg of src directly into dstReg of dst — the
// pure-copy fast path for local range fetches. Region shapes and dtypes
// must match. It returns the number of bytes copied (every byte moves
// exactly once). It allocates nothing: validation reads the shapes in
// place and the copy odometer lives on the stack. Slice and SetSlice
// copy through it.
func CopyRegion(dst *Tensor, dstReg Region, src *Tensor, srcReg Region) (int64, error) {
	if !dstReg.Valid(dst.shape) {
		return 0, fmt.Errorf("tensor: CopyRegion dst region %v invalid for shape %v", dstReg, dst.shape)
	}
	if !srcReg.Valid(src.shape) {
		return 0, fmt.Errorf("tensor: CopyRegion src region %v invalid for shape %v", srcReg, src.shape)
	}
	if dst.dtype != src.dtype {
		return 0, fmt.Errorf("tensor: CopyRegion dtype mismatch %s vs %s", dst.dtype, src.dtype)
	}
	if len(dstReg) != len(srcReg) {
		return 0, fmt.Errorf("tensor: CopyRegion rank mismatch %d vs %d", len(dstReg), len(srcReg))
	}
	for d := range dstReg {
		if dstReg[d].Len() != srcReg[d].Len() {
			return 0, fmt.Errorf("tensor: CopyRegion shape mismatch %v vs %v", dstReg, srcReg)
		}
	}
	rank := len(srcReg)
	if rank == 0 {
		return int64(copy(dst.data, src.data)), nil
	}
	if rank > maxStreamRank {
		return 0, fmt.Errorf("tensor: CopyRegion rank %d exceeds streaming cap %d", rank, maxStreamRank)
	}
	es := src.dtype.Size()
	var srcStrides, dstStrides, idx [maxStreamRank]int
	acc := 1
	for d := rank - 1; d >= 0; d-- {
		srcStrides[d] = acc
		acc *= src.shape[d]
	}
	acc = 1
	for d := rank - 1; d >= 0; d-- {
		dstStrides[d] = acc
		acc *= dst.shape[d]
	}
	rowLen := srcReg[rank-1].Len() * es
	for {
		srcOff := srcReg[rank-1].Lo * srcStrides[rank-1]
		dstOff := dstReg[rank-1].Lo * dstStrides[rank-1]
		for d := 0; d < rank-1; d++ {
			srcOff += (srcReg[d].Lo + idx[d]) * srcStrides[d]
			dstOff += (dstReg[d].Lo + idx[d]) * dstStrides[d]
		}
		copy(dst.data[dstOff*es:dstOff*es+rowLen], src.data[srcOff*es:srcOff*es+rowLen])
		d := rank - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < srcReg[d].Len() {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	return srcReg.NumBytes(src.dtype), nil
}

// NewFromRegion allocates a zero-filled tensor shaped like reg — the
// destination-buffer constructor of the streamed data path. It avoids
// the intermediate shape slice a New(dt, reg.Shape()...) call would
// build.
func NewFromRegion(dt DType, reg Region) *Tensor {
	if !dt.Valid() {
		panic("tensor: NewFromRegion with invalid dtype")
	}
	shape := make([]int, len(reg))
	n := 1
	for i, r := range reg {
		if !r.Valid() {
			panic(fmt.Sprintf("tensor: NewFromRegion with invalid region %v", reg))
		}
		shape[i] = r.Len()
		n *= r.Len()
	}
	return &Tensor{dtype: dt, shape: shape, data: make([]byte, n*dt.Size())}
}

// Shift returns the region moved by +origin[i] in every dimension — the
// inverse of Translate. The transformer uses it to re-express a range
// given relative to a fetched extent in the coordinates of the
// destination buffer it scatters into.
func (g Region) Shift(origin []int) Region {
	out := make(Region, len(g))
	for i, r := range g {
		out[i] = Range{r.Lo + origin[i], r.Hi + origin[i]}
	}
	return out
}

// Slab is memory that tensors are cut from, round after round: a caller
// that holds a bounded window of tensors at a time — the reads of one
// round, or the state it generates for one — takes fresh memory only
// until the slab has grown to a round's size. Tensors cut from a slab
// alias its memory, which the next round reuses, so every one of them
// must be dropped before Reset.
type Slab struct {
	buf  []byte
	used int
}

// New cuts a tensor shaped like reg from the slab. Its bytes are not
// zeroed: they are what the slab held last round, for a caller about to
// overwrite every one of them. Past the round's size (see Reset) it
// allocates a fresh tensor.
func (s *Slab) New(dt DType, reg Region) *Tensor {
	n := reg.NumElems() * dt.Size()
	if s.used+n > len(s.buf) {
		return NewFromRegion(dt, reg)
	}
	t := &Tensor{dtype: dt, shape: reg.Shape(), data: s.buf[s.used : s.used+n : s.used+n]}
	s.used += n
	return t
}

// Reset starts the next round, of n bytes: the slab's memory is reused
// from its start, or replaced by n bytes when it has fewer.
func (s *Slab) Reset(n int) {
	if len(s.buf) < n {
		s.buf = make([]byte, n)
	}
	s.used = 0
}
