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

// maxStreamRank bounds the stack scratch of the run walker; it matches
// the rank cap the wire codec enforces.
const maxStreamRank = 16

// walk steps through the row-major runs of region src of a tensor
// shaped srcShape, each paired with the same run of the same-shaped
// region dst of a tensor shaped dstShape, or with dst nil of src's runs
// laid end to end. A run is the longest span gapless on both sides:
// trailing dimensions that src and dst cover whole are one run, so a
// gapless region is one run. Offsets and lengths are in bytes. A walk
// is a value on its caller's stack, so walking allocates nothing:
//
//	w := newWalk(es, srcShape, src, dstShape, dst, 0)
//	for w.next() {
//		copy(to[w.dst:w.dst+w.n], from[w.src:w.src+w.n])
//	}
//
// (Declared in a for statement, the walk would be copied every turn.)
type walk struct {
	src, dst, n int  // the current run: its offsets and length
	size, left  int  // bytes per run, and runs next has still to visit
	inner       int  // the dimensions from inner on lie within a run
	started     bool // next has visited the first run

	// Per dimension outer to a run: its length, strides and index.
	lens, srcStride, dstStride, idx [maxStreamRank]int
}

// newWalk starts a walk of elements of es bytes at byte at of the
// stream the runs make end to end.
func newWalk(es int, srcShape []int, src Region, dstShape []int, dst Region, at int) walk {
	w := walk{size: es, left: 1, inner: len(src)}
	for w.inner > 0 {
		w.inner--
		d := w.inner
		w.size *= src[d].Len()
		if src[d].Len() != srcShape[d] || dst != nil && dst[d].Len() != dstShape[d] {
			break
		}
	}
	if w.inner > maxStreamRank {
		panic(fmt.Sprintf("tensor: rank %d exceeds streaming cap %d", len(src), maxStreamRank))
	}
	sAcc, dAcc := es, es
	for d := len(src) - 1; d >= 0; d-- {
		lo, ext := 0, src[d].Len() // dst's start and extent in dimension d
		if dst != nil {
			lo, ext = dst[d].Lo, dstShape[d]
		}
		w.src += src[d].Lo * sAcc
		w.dst += lo * dAcc
		if d < w.inner {
			w.lens[d], w.srcStride[d], w.dstStride[d] = src[d].Len(), sAcc, dAcc
			w.left *= src[d].Len()
		}
		sAcc *= srcShape[d]
		dAcc *= ext
	}
	// Seek: the run holding byte at, and the bytes of it before at.
	run, skip := at/w.size, at%w.size
	w.left -= run
	for d := w.inner - 1; d >= 0 && run > 0; d-- {
		w.idx[d] = run % w.lens[d]
		run /= w.lens[d]
		w.src += w.idx[d] * w.srcStride[d]
		w.dst += w.idx[d] * w.dstStride[d]
	}
	w.src += skip
	w.dst += skip
	w.n = w.size - skip
	return w
}

// next moves to the next run, the first on its first call, and reports
// whether there is one. It steps an odometer over the dimensions outer
// to a run, carrying the offsets rather than recomputing them.
func (w *walk) next() bool {
	if w.left == 0 {
		return false
	}
	w.left--
	if !w.started {
		w.started = true
		return true
	}
	w.src += w.n - w.size // back to the start of a run the seek cut
	w.dst += w.n - w.size
	w.n = w.size
	for d := w.inner - 1; d >= 0; d-- {
		w.src += w.srcStride[d]
		w.dst += w.dstStride[d]
		if w.idx[d]++; w.idx[d] < w.lens[d] {
			break
		}
		w.src -= w.lens[d] * w.srcStride[d]
		w.dst -= w.lens[d] * w.dstStride[d]
		w.idx[d] = 0
	}
	return true
}

// View is a read-only window over the region reg of a tensor. It
// aliases the tensor's backing buffer — no bytes are copied — and
// streams or random-accesses the region's payload in row-major order.
// The underlying tensor must not be mutated while views of it are live.
// A store reuses the buffer of a tensor it allocated once the tensor has
// left its tree, so a store read holds a pin on the tensor for as long
// as its views are live (store.MemFS's pin rule).
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

// Shape returns the per-dimension lengths of the view.
func (v View) Shape() []int { return v.reg.Shape() }

// Rank returns the number of dimensions of the view.
func (v View) Rank() int { return len(v.reg) }

// NumBytes returns the payload size of the view.
func (v View) NumBytes() int { return v.reg.NumElems() * v.t.dtype.Size() }

// walk starts a walk of the view's runs at byte at of its payload.
func (v View) walk(at int) walk {
	return newWalk(v.t.dtype.Size(), v.t.shape, v.reg, nil, nil, at)
}

// WriteTo streams the view's payload (raw row-major element bytes) to
// out, reading straight out of the backing buffer: one Write per run.
func (v View) WriteTo(out io.Writer) (int64, error) {
	var total int64
	w := v.walk(0)
	for w.next() {
		n, err := out.Write(v.t.data[w.src : w.src+w.n])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadAt implements io.ReaderAt over the view's payload: off indexes
// the row-major byte stream of the region, not the backing buffer. The
// walk starts at the run holding off, so a sequential Reader does not
// re-walk what it has read.
func (v View) ReadAt(p []byte, off int64) (int, error) {
	total := int64(v.NumBytes())
	if off < 0 {
		return 0, fmt.Errorf("tensor: View.ReadAt negative offset %d", off)
	}
	if off >= total {
		return 0, io.EOF
	}
	read := 0
	w := v.walk(int(off))
	for read < len(p) && w.next() {
		read += copy(p[read:], v.t.data[w.src:w.src+w.n])
	}
	if read < len(p) {
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

// WriteRegion scatter-writes exactly reg.NumBytes(t.DType()) bytes from
// r into the sub-region reg of t: each contiguous run of the region is
// filled directly from the stream, so incoming bytes land at their
// final strided offsets without an intermediate tensor. It returns the
// number of payload bytes consumed from r.
func (t *Tensor) WriteRegion(reg Region, r io.Reader) (int64, error) {
	if !reg.Valid(t.shape) {
		return 0, fmt.Errorf("tensor: WriteRegion region %v invalid for shape %v", reg, t.shape)
	}
	var total int64
	w := newWalk(t.dtype.Size(), t.shape, reg, nil, nil, 0)
	for w.next() {
		n, err := io.ReadFull(r, t.data[w.src:w.src+w.n])
		total += int64(n)
		if err != nil {
			return total, fmt.Errorf("tensor: WriteRegion: %w", err)
		}
	}
	return total, nil
}

// CopyRegion copies srcReg of src directly into dstReg of dst — the
// pure-copy fast path for local range fetches. Region shapes and dtypes
// must match. It returns the number of bytes copied (every byte moves
// exactly once). It allocates nothing: validation reads the shapes in
// place and the walk lives on the stack. Slice and SetSlice
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
	if len(srcReg) > maxStreamRank {
		return 0, fmt.Errorf("tensor: CopyRegion rank %d exceeds streaming cap %d", len(srcReg), maxStreamRank)
	}
	w := newWalk(src.dtype.Size(), src.shape, srcReg, dst.shape, dstReg, 0)
	for w.next() {
		copy(dst.data[w.dst:w.dst+w.n], src.data[w.src:w.src+w.n])
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
