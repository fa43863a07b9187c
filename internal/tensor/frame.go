package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// Batch frame stream: the wire format the Tensor Store uses to answer a
// multi-range batch query with a single response body (the requests that
// ask for one are the other half of this file). Little-endian
// throughout:
//
//	stream header
//	  magic   uint32  0x54504c42 ("TPLB")
//	  version uint16  1
//	  flags   uint16  bit 0: each frame carries a CRC32C trailer
//	frame, repeated
//	  index   uint32  first request entry this frame covers
//	  count   uint32  number of consecutive entries coalesced into it
//	  length  uint64  payload bytes
//	  payload length × raw element bytes, row-major over the union region
//	  crc     uint32  CRC32C (Castagnoli) of the payload, iff bit 0 set
//	end frame
//	  index=0xffffffff count=0 length=0, no payload, no crc
//
// The end frame is what lets a reader distinguish a complete response
// from one truncated by a dying connection: any EOF before it surfaces
// as io.ErrUnexpectedEOF, which the store client treats as retryable.
const (
	frameMagic   uint32 = 0x54504c42
	frameVersion uint16 = 1

	// FrameFlagCRC marks a stream whose frames carry CRC32C trailers.
	FrameFlagCRC uint16 = 1 << 0

	// FrameEndIndex is the Index value of the stream-terminating frame.
	FrameEndIndex uint32 = 0xffffffff

	// FrameStreamHeaderSize and FrameHeaderSize are the encoded sizes of
	// the stream header and each per-frame header; FrameCRCSize is the
	// per-frame trailer when FrameFlagCRC is set.
	FrameStreamHeaderSize = 4 + 2 + 2
	FrameHeaderSize       = 4 + 4 + 8
	FrameCRCSize          = 4
)

// FrameHeader describes one frame of a batch response: the payload
// covers Count consecutive request entries starting at Index, coalesced
// into one contiguous run of Length bytes.
type FrameHeader struct {
	Index  uint32
	Count  uint32
	Length uint64
}

// End reports whether h terminates the stream.
func (h FrameHeader) End() bool { return h.Index == FrameEndIndex }

// AppendFrameStreamHeader appends the stream header to buf. Like every
// Append function of this file it allocates only when buf must grow, so
// a writer that appends into its own buffer encodes for free.
func AppendFrameStreamHeader(buf []byte, flags uint16) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, frameMagic)
	buf = binary.LittleEndian.AppendUint16(buf, frameVersion)
	return binary.LittleEndian.AppendUint16(buf, flags)
}

// DecodeFrameStreamHeader reads and validates the stream header,
// returning the stream flags. EOF before a complete header is reported
// as io.ErrUnexpectedEOF: the stream was cut before it even began.
func DecodeFrameStreamHeader(r io.Reader) (uint16, error) {
	var buf [FrameStreamHeaderSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("tensor: frame stream header: %w", asTruncation(err))
	}
	return ParseFrameStreamHeader(buf[:])
}

// ParseFrameStreamHeader validates the stream header held in the first
// FrameStreamHeaderSize bytes of buf and returns the stream flags.
func ParseFrameStreamHeader(buf []byte) (uint16, error) {
	if m := binary.LittleEndian.Uint32(buf[0:]); m != frameMagic {
		return 0, fmt.Errorf("tensor: frame stream: bad magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != frameVersion {
		return 0, fmt.Errorf("tensor: frame stream: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(buf[6:])
	if flags&^FrameFlagCRC != 0 {
		return 0, fmt.Errorf("tensor: frame stream: unknown flags %#x", flags)
	}
	return flags, nil
}

// AppendFrameHeader appends one per-frame header to buf.
func AppendFrameHeader(buf []byte, h FrameHeader) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, h.Index)
	buf = binary.LittleEndian.AppendUint32(buf, h.Count)
	return binary.LittleEndian.AppendUint64(buf, h.Length)
}

// AppendEndFrame appends the stream-terminating frame to buf.
func AppendEndFrame(buf []byte) []byte {
	return AppendFrameHeader(buf, FrameHeader{Index: FrameEndIndex})
}

// DecodeFrameHeaderFrom reads one per-frame header. The stream contract
// says a header (data or end frame) always follows, so EOF here means
// the connection died mid-stream and is reported as io.ErrUnexpectedEOF.
func DecodeFrameHeaderFrom(r io.Reader) (FrameHeader, error) {
	var buf [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return FrameHeader{}, fmt.Errorf("tensor: frame header: %w", asTruncation(err))
	}
	return ParseFrameHeader(buf[:])
}

// ParseFrameHeader decodes the per-frame header held in the first
// FrameHeaderSize bytes of buf. A receiver that reads headers into a
// buffer of its own decodes a stream's frames without allocating.
func ParseFrameHeader(buf []byte) (FrameHeader, error) {
	h := FrameHeader{
		Index:  binary.LittleEndian.Uint32(buf[0:]),
		Count:  binary.LittleEndian.Uint32(buf[4:]),
		Length: binary.LittleEndian.Uint64(buf[8:]),
	}
	if h.End() {
		if h.Count != 0 || h.Length != 0 {
			return FrameHeader{}, fmt.Errorf("tensor: frame header: malformed end frame (count=%d length=%d)", h.Count, h.Length)
		}
		return h, nil
	}
	if h.Count == 0 {
		return FrameHeader{}, fmt.Errorf("tensor: frame header: zero entry count")
	}
	if h.Length > 1<<62 {
		return FrameHeader{}, fmt.Errorf("tensor: frame header: implausible length %d", h.Length)
	}
	return h, nil
}

// asTruncation maps a clean io.EOF from a partial read into
// io.ErrUnexpectedEOF so callers see one retryable truncation error
// regardless of where the stream was cut.
func asTruncation(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Requests: the bodies of POST /batch, POST /assemble and POST
// /upload-batch are binary too, built from three pieces the three
// layouts (store/batch.go, store/assemble.go, store/upload.go) share.
// Little-endian, like the response:
//
//	request header
//	  magic   uint32  0x54504c51 ("TPLQ")
//	  version uint16  1
//	  kind    uint16  RequestBatch, RequestAssemble or RequestUpload
//	string
//	  length  uint32
//	  bytes   length × byte
//	region
//	  rank    uint8   0: the whole tensor (a nil Region)
//	  ranges  rank × { lo uint64, hi uint64 }, each with lo < hi
//
// A sender appends straight from its own structures (no Region.String,
// no intermediate document); a receiver reads field by field off the
// socket through a RequestReader, which never allocates from a length
// it has not checked against the caller's cap.
const (
	requestMagic   uint32 = 0x54504c51
	requestVersion uint16 = 1

	// RequestBatch, RequestAssemble and RequestUpload are the request
	// kinds.
	RequestBatch    uint16 = 1
	RequestAssemble uint16 = 2
	RequestUpload   uint16 = 3

	// RequestHeaderSize is the encoded size of the request header.
	RequestHeaderSize = 4 + 2 + 2

	// requestBufferSize is the RequestReader's read buffer: one read
	// from the socket takes in a typical request whole, and it bounds the
	// strings the reader can decode.
	requestBufferSize = 64 << 10

	// stringChunk is a StringArena's first chunk, some eighty store paths;
	// each next one is twice the last, up to maxStringChunk.
	stringChunk    = 4 << 10
	maxStringChunk = 16 << 10
)

// StringArena hands out strings cut from a few large chunks instead of
// allocating each one. A Builder's bytes are written once and never
// moved, so a string cut from it stays good when later ones are appended
// behind it; a full chunk is left to the strings that point into it and
// a new one begun. Every string keeps its whole chunk alive, so an arena
// suits many short strings of one lifetime: a request's paths, an
// apply's. The zero value is an empty arena.
type StringArena struct{ b strings.Builder }

// Cut returns p as a string cut from the arena.
func (a *StringArena) Cut(p []byte) string {
	if a.b.Cap()-a.b.Len() < len(p) {
		next := min(max(2*a.b.Cap(), stringChunk), maxStringChunk)
		a.b = strings.Builder{}
		a.b.Grow(max(len(p), next))
	}
	start := a.b.Len()
	a.b.Write(p)
	return a.b.String()[start:]
}

// AppendRequestHeader appends the header of a request of the given kind.
func AppendRequestHeader(buf []byte, kind uint16) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, requestMagic)
	buf = binary.LittleEndian.AppendUint16(buf, requestVersion)
	return binary.LittleEndian.AppendUint16(buf, kind)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// AppendRegion appends a region; nil and empty regions both encode as
// rank 0, the whole tensor.
func AppendRegion(buf []byte, g Region) []byte {
	buf = append(buf, uint8(len(g)))
	for _, r := range g {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Hi))
	}
	return buf
}

// RequestReader decodes the fields of a request body from a byte
// stream. The first failure sticks: every later call returns a zero
// value, so a decoder reads a run of fields and checks Err once per
// record, before it trusts any of them. A cut stream is reported as
// io.ErrUnexpectedEOF; an error of the underlying reader (a body over
// its limit) is passed on wrapped. Fields are decoded in place in the
// read buffer: only String allocates, after the declared length has
// passed its cap, and then one chunk for many strings.
type RequestReader struct {
	r    *bufio.Reader
	err  error
	strs StringArena // the request's strings
}

// NewRequestReader returns a reader with no input; Reset gives it one.
// The buffer makes readers worth pooling.
func NewRequestReader() *RequestReader {
	return &RequestReader{r: bufio.NewReaderSize(nil, requestBufferSize)}
}

// Reset makes d read from r, forgetting any previous input and error.
func (d *RequestReader) Reset(r io.Reader) {
	d.r.Reset(r)
	d.err = nil
	d.strs = StringArena{}
}

// Err returns the first failure, nil if there was none.
func (d *RequestReader) Err() error { return d.err }

// peek returns the next n bytes without consuming them (skip does), or
// nil after recording why not. n must not exceed requestBufferSize.
func (d *RequestReader) peek(n int) []byte {
	if d.err != nil {
		return nil
	}
	b, err := d.r.Peek(n)
	if err != nil {
		d.err = fmt.Errorf("tensor: request: %w", asTruncation(err))
		return nil
	}
	return b
}

func (d *RequestReader) skip(n int) { _, _ = d.r.Discard(n) } // n bytes are buffered: peek saw them

// Header reads the request header and checks it is of the given kind.
func (d *RequestReader) Header(kind uint16) {
	b := d.peek(RequestHeaderSize)
	if b == nil {
		return
	}
	switch {
	case binary.LittleEndian.Uint32(b[0:]) != requestMagic:
		d.err = fmt.Errorf("tensor: request: bad magic %#x", binary.LittleEndian.Uint32(b[0:]))
	case binary.LittleEndian.Uint16(b[4:]) != requestVersion:
		d.err = fmt.Errorf("tensor: request: unsupported version %d", binary.LittleEndian.Uint16(b[4:]))
	case binary.LittleEndian.Uint16(b[6:]) != kind:
		d.err = fmt.Errorf("tensor: request: kind %d, want %d", binary.LittleEndian.Uint16(b[6:]), kind)
	}
	d.skip(RequestHeaderSize)
}

// uint reads an n-byte little-endian integer, 0 after a failure.
func (d *RequestReader) uint(n int) (v uint64) {
	b := d.peek(n)
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	d.skip(len(b))
	return v
}

// Uint8, Uint16, Uint32 and Uint64 read an integer of that width.
func (d *RequestReader) Uint8() uint8   { return uint8(d.uint(1)) }
func (d *RequestReader) Uint16() uint16 { return uint16(d.uint(2)) }
func (d *RequestReader) Uint32() uint32 { return uint32(d.uint(4)) }
func (d *RequestReader) Uint64() uint64 { return d.uint(8) }

// String reads a string of at most limit bytes (and at most the read
// buffer's size, whatever limit says).
func (d *RequestReader) String(limit int) string {
	n := d.Uint32()
	if d.err != nil {
		return ""
	}
	if limit = min(limit, requestBufferSize); int64(n) > int64(limit) {
		d.err = fmt.Errorf("tensor: request: string of %d bytes exceeds limit %d", n, limit)
		return ""
	}
	b := d.peek(int(n))
	if b == nil {
		return ""
	}
	s := d.strs.Cut(b)
	d.skip(int(n))
	return s
}

// Region reads a region. Its ranges are appended to *arena and the
// region returned is a slice of it, so a request's regions cost one
// growing allocation between them, not one each; the arena belongs to
// the caller and must live as long as the regions do. Every range is
// checked well-formed (0 <= lo < hi); bounds against a shape are the
// caller's to check.
func (d *RequestReader) Region(arena *[]Range) Region {
	rank := int(d.Uint8())
	if d.err != nil || rank == 0 {
		return nil
	}
	if rank > maxStreamRank {
		d.err = fmt.Errorf("tensor: request: region of rank %d exceeds limit %d", rank, maxStreamRank)
		return nil
	}
	b := d.peek(16 * rank)
	if b == nil {
		return nil
	}
	start := len(*arena)
	for i := 0; i < rank; i++ {
		lo, hi := binary.LittleEndian.Uint64(b[16*i:]), binary.LittleEndian.Uint64(b[16*i+8:])
		if lo >= hi || hi > math.MaxInt64 {
			d.err = fmt.Errorf("tensor: request: bad range %d:%d", lo, hi)
			*arena = (*arena)[:start]
			return nil
		}
		*arena = append(*arena, Range{Lo: int(lo), Hi: int(hi)})
	}
	d.skip(16 * rank)
	return Region((*arena)[start:len(*arena):len(*arena)])
}

// Read reads the raw bytes that follow the fields decoded so far: a
// payload a request carries in line (an upload's frames), which goes to
// the caller's buffer without being decoded. One that is at least the
// read buffer's size is read from the input directly. The input's end is
// io.EOF, as for any reader; any other failure sticks like a field's.
func (d *RequestReader) Read(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	n, err := d.r.Read(p)
	if err != nil && err != io.EOF {
		d.err = fmt.Errorf("tensor: request: %w", err)
		err = d.err
	}
	return n, err
}

// End checks that the input ends here: a request is one message, and
// bytes after it are refused like bytes missing from it.
func (d *RequestReader) End() {
	if d.err != nil {
		return
	}
	switch _, err := d.r.Peek(1); err {
	case io.EOF:
	case nil:
		d.err = fmt.Errorf("tensor: request: trailing bytes")
	default:
		d.err = fmt.Errorf("tensor: request: %w", err)
	}
}
