package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format for tensors crossing the Tensor Store REST API or being
// persisted as checkpoint files. Little-endian throughout:
//
//	magic   uint32  0x54504c58 ("TPLX")
//	version uint16  1
//	dtype   uint16
//	rank    uint32
//	shape   rank × int64
//	payload raw element bytes, row-major
const (
	wireMagic   uint32 = 0x54504c58
	wireVersion uint16 = 1
)

// EncodedSize returns the number of bytes Encode will produce for t.
func (t *Tensor) EncodedSize() int {
	return HeaderSize(len(t.shape)) + len(t.data)
}

// Encode serializes t in the wire format.
func (t *Tensor) Encode() []byte {
	buf := appendHeader(make([]byte, 0, t.EncodedSize()), t.dtype, t.shape)
	return append(buf, t.data...)
}

// EncodeHeader serializes just the wire-format header for a tensor of
// the given dtype and shape. Streaming writers emit it and then stream
// the payload bytes straight out of a backing buffer, avoiding the full
// intermediate copy Encode makes.
func EncodeHeader(dt DType, shape []int) []byte {
	return appendHeader(make([]byte, 0, HeaderSize(len(shape))), dt, shape)
}

func appendHeader(buf []byte, dt DType, shape []int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, wireMagic)
	buf = binary.LittleEndian.AppendUint16(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(dt))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(shape)))
	for _, d := range shape {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	}
	return buf
}

// HeaderSize returns the wire-format header length for a given rank.
func HeaderSize(rank int) int { return 4 + 2 + 2 + 4 + 8*rank }

// WriteTo streams the encoded form of t to w: the header followed by
// the backing bytes, with no intermediate full-size buffer.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(EncodeHeader(t.dtype, t.shape))
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(t.data)
	return int64(n + m), err
}

// EncodedSize returns the number of bytes v.Encode will produce.
func (v View) EncodedSize() int {
	return HeaderSize(len(v.reg)) + v.NumBytes()
}

// Encode streams the wire format of the viewed region to w — header
// describing the region's shape, then the payload read run-by-run out
// of the source buffer. This is how the Tensor Store server answers
// range queries without materializing a sub-tensor.
func (v View) Encode(w io.Writer) (int64, error) {
	n, err := w.Write(EncodeHeader(v.t.dtype, v.reg.Shape()))
	if err != nil {
		return int64(n), err
	}
	m, err := v.WriteTo(w)
	return int64(n) + m, err
}

// DecodeHeaderFrom reads exactly one wire-format header from r and
// returns the payload's dtype and shape; the next ShapeNumBytes(dt,
// shape) bytes of r are the row-major payload. Streaming readers use it
// to size a destination buffer before scatter-reading the payload.
func DecodeHeaderFrom(r io.Reader) (DType, []int, error) {
	fixed := make([]byte, HeaderSize(0))
	if _, err := io.ReadFull(r, fixed); err != nil {
		return Invalid, nil, fmt.Errorf("tensor: decode header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(fixed[0:]); m != wireMagic {
		return Invalid, nil, fmt.Errorf("tensor: decode: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(fixed[4:]); v != wireVersion {
		return Invalid, nil, fmt.Errorf("tensor: decode: unsupported version %d", v)
	}
	// The field is 16 bits wide and DType 8: compare after converting
	// back, or 0x3006 would pass for Uint8.
	raw := binary.LittleEndian.Uint16(fixed[6:])
	dt := DType(raw)
	if uint16(dt) != raw || !dt.Valid() {
		return Invalid, nil, fmt.Errorf("tensor: decode: invalid dtype %d", raw)
	}
	rank := int(binary.LittleEndian.Uint32(fixed[8:]))
	if rank < 0 || rank > 16 {
		return Invalid, nil, fmt.Errorf("tensor: decode: implausible rank %d", rank)
	}
	shapeBuf := make([]byte, 8*rank)
	if _, err := io.ReadFull(r, shapeBuf); err != nil {
		return Invalid, nil, fmt.Errorf("tensor: decode: truncated shape: %w", err)
	}
	shape := make([]int, rank)
	elems := int64(1)
	for i := 0; i < rank; i++ {
		d := int64(binary.LittleEndian.Uint64(shapeBuf[8*i:]))
		if d <= 0 {
			return Invalid, nil, fmt.Errorf("tensor: decode: non-positive dim %d", d)
		}
		// The header is untrusted input: reject element counts whose
		// byte size cannot be represented, before any allocation.
		if elems > (1<<62)/d/int64(dt.Size()) {
			return Invalid, nil, fmt.Errorf("tensor: decode: implausible shape (element count overflows)")
		}
		elems *= d
		shape[i] = int(d)
	}
	return dt, shape, nil
}

// decodeChunk is the most payload DecodeFrom allocates before any of it
// has arrived.
const decodeChunk = 1 << 20

// DecodeFrom reads one encoded tensor from r incrementally, the payload
// directly into the tensor's backing buffer. The header is untrusted
// (it arrives from a peer), so the buffer is not sized from it up
// front: it starts at no more than decodeChunk bytes and doubles as the
// bytes actually arrive, so a header declaring 2^62 bytes costs nothing
// until the bytes fail to come. A tensor of up to decodeChunk bytes is
// still one allocation and one copy, however the stream is chunked.
func DecodeFrom(r io.Reader) (*Tensor, error) {
	dt, shape, err := DecodeHeaderFrom(r)
	if err != nil {
		return nil, err
	}
	want := ShapeNumElems(shape) * dt.Size()
	data := make([]byte, min(want, decodeChunk))
	got := 0
	for {
		n, err := io.ReadFull(r, data[got:])
		if err != nil {
			return nil, fmt.Errorf("tensor: decode: payload: %w", err)
		}
		if got += n; got == want {
			return &Tensor{dtype: dt, shape: shape, data: data}, nil
		}
		grown := make([]byte, min(want, 2*got))
		copy(grown, data)
		data = grown
	}
}
