package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestFrameStreamHeaderRoundTrip(t *testing.T) {
	for _, flags := range []uint16{0, FrameFlagCRC} {
		got, err := DecodeFrameStreamHeader(bytes.NewReader(AppendFrameStreamHeader(nil, flags)))
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if got != flags {
			t.Fatalf("round trip flags = %#x, want %#x", got, flags)
		}
	}
}

// streamHeaderWith is a valid stream header with one field overwritten.
func streamHeaderWith(off int, put func([]byte)) []byte {
	buf := AppendFrameStreamHeader(nil, 0)
	put(buf[off:])
	return buf
}

// malformedStreamHeaders and malformedFrameHeaders list encoded headers
// the decoders must refuse; the fuzz target starts from them.
var malformedStreamHeaders = []struct {
	name string
	buf  []byte
}{
	{"bad magic", streamHeaderWith(0, func(b []byte) { binary.LittleEndian.PutUint32(b, 0xdeadbeef) })},
	{"unsupported version", streamHeaderWith(4, func(b []byte) { binary.LittleEndian.PutUint16(b, 99) })},
	{"unknown flag bits", streamHeaderWith(6, func(b []byte) { binary.LittleEndian.PutUint16(b, 1<<7) })},
}

var malformedFrameHeaders = []struct {
	name string
	buf  []byte
}{
	// An end index with a count or a length is rejected rather than read
	// as "0 payload bytes follow".
	{"end frame with nonzero count", AppendFrameHeader(nil, FrameHeader{Index: FrameEndIndex, Count: 1})},
	{"end frame with nonzero length", AppendFrameHeader(nil, FrameHeader{Index: FrameEndIndex, Length: 8})},
	{"zero entry count", AppendFrameHeader(nil, FrameHeader{Index: 0, Count: 0, Length: 4})},
	{"implausible length", AppendFrameHeader(nil, FrameHeader{Index: 0, Count: 1, Length: 1 << 63})},
}

func TestFrameStreamHeaderRejectsMalformed(t *testing.T) {
	for _, c := range malformedStreamHeaders {
		if _, err := DecodeFrameStreamHeader(bytes.NewReader(c.buf)); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
	// Truncated header: a cut connection must read as ErrUnexpectedEOF so
	// the store client treats it as retryable.
	whole := AppendFrameStreamHeader(nil, 0)
	for n := 0; n < len(whole); n++ {
		if _, err := DecodeFrameStreamHeader(bytes.NewReader(whole[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated header (%d bytes) error = %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	want := FrameHeader{Index: 7, Count: 3, Length: 1 << 20}
	got, err := DecodeFrameHeaderFrom(bytes.NewReader(AppendFrameHeader(nil, want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip header = %+v, want %+v", got, want)
	}
	if got.End() {
		t.Fatal("data frame reported End")
	}
}

func TestFrameHeaderEndFrame(t *testing.T) {
	got, err := DecodeFrameHeaderFrom(bytes.NewReader(AppendEndFrame(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.End() {
		t.Fatal("end frame not recognized")
	}
}

func TestFrameHeaderRejectsMalformed(t *testing.T) {
	for _, c := range malformedFrameHeaders {
		if _, err := DecodeFrameHeaderFrom(bytes.NewReader(c.buf)); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
}

func TestFrameHeaderTruncationIsUnexpectedEOF(t *testing.T) {
	whole := AppendFrameHeader(nil, FrameHeader{Index: 2, Count: 1, Length: 64})
	for n := 0; n < len(whole); n++ {
		_, err := DecodeFrameHeaderFrom(bytes.NewReader(whole[:n]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated frame header (%d bytes) error = %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

// walkFrameStream reads a frame stream the way a receiver does — stream
// header, then frame headers, skipping each payload (and trailer, when
// the stream has them) without buffering it — up to the end frame or the
// first error. It returns the data frames seen.
func walkFrameStream(r io.Reader) (frames int, err error) {
	flags, err := DecodeFrameStreamHeader(r)
	if err != nil {
		return 0, err
	}
	for {
		h, err := DecodeFrameHeaderFrom(r)
		if err != nil {
			return frames, err
		}
		if h.End() {
			return frames, nil
		}
		skip := int64(h.Length)
		if flags&FrameFlagCRC != 0 {
			skip += FrameCRCSize
		}
		if _, err := io.CopyN(io.Discard, r, skip); err != nil {
			return frames, asTruncation(err)
		}
		frames++
	}
}

// frameStream encodes a well-formed stream of the given payloads.
func frameStream(flags uint16, payloads ...[]byte) []byte {
	buf := AppendFrameStreamHeader(nil, flags)
	for i, p := range payloads {
		buf = append(buf, AppendFrameHeader(nil, FrameHeader{Index: uint32(i), Count: 1, Length: uint64(len(p))})...)
		buf = append(buf, p...)
		if flags&FrameFlagCRC != 0 {
			buf = append(buf, 0, 0, 0, 0) // the walker skips trailers; store verifies them
		}
	}
	return append(buf, AppendEndFrame(nil)...)
}

// hugeFrame is a stream whose only frame claims 2^62 payload bytes and
// delivers none.
var hugeFrame = append(AppendFrameStreamHeader(nil, 0), AppendFrameHeader(nil, FrameHeader{Count: 1, Length: 1 << 62})...)

// A declared length is never trusted with memory: the decoders read
// fixed-size headers only, so a frame claiming 2^62 bytes costs nothing
// until the bytes fail to arrive.
func TestFrameStreamDoesNotAllocateFromDeclaredLength(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := walkFrameStream(bytes.NewReader(hugeFrame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("missing payload error = %v, want ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("walking a frame that declares 2^62 bytes allocated %d bytes", n)
	}
}

// FuzzFrameStream throws arbitrary bytes at the frame-stream decoders:
// they never panic, and a stream either ends cleanly at its end frame or
// fails with an error. Whatever ends cleanly, cut anywhere short of its
// end frame, must fail with io.ErrUnexpectedEOF — the one error the
// store client retries as a dying connection.
func FuzzFrameStream(f *testing.F) {
	for _, c := range malformedStreamHeaders {
		f.Add(c.buf)
	}
	for _, c := range malformedFrameHeaders {
		f.Add(append(AppendFrameStreamHeader(nil, FrameFlagCRC), c.buf...))
	}
	whole := frameStream(FrameFlagCRC, []byte("0123456789abcdef"), nil, []byte{1})
	for n := 0; n <= len(whole); n++ {
		f.Add(whole[:n])
	}
	f.Add(frameStream(0, []byte("unchecksummed")))
	f.Add(hugeFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		frames, err := walkFrameStream(r)
		if err != nil {
			return
		}
		used := len(data) - r.Len()
		if used < FrameStreamHeaderSize+(frames+1)*FrameHeaderSize {
			t.Fatalf("clean end after %d bytes with %d frames", used, frames)
		}
		for n := 0; n < used; n++ {
			if _, err := walkFrameStream(bytes.NewReader(data[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("stream of %d bytes cut at %d: error = %v, want ErrUnexpectedEOF", used, n, err)
			}
		}
	})
}

// requestOf is a RequestReader over bytes held in memory.
func requestOf(body []byte) *RequestReader {
	d := NewRequestReader()
	d.Reset(bytes.NewReader(body))
	return d
}

func TestRequestFieldsRoundTrip(t *testing.T) {
	reg := Region{{Lo: 0, Hi: 3}, {Lo: 1 << 40, Hi: 1<<40 + 1}}
	buf := AppendRequestHeader(nil, RequestAssemble)
	buf = append(buf, 7)
	buf = binary.LittleEndian.AppendUint16(buf, 515)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<31)
	buf = binary.LittleEndian.AppendUint64(buf, 1<<63)
	buf = AppendString(buf, "/job/j0/model/dev2/w")
	buf = AppendString(buf, "")
	buf = AppendRegion(AppendRegion(AppendRegion(buf, reg), nil), Region{})

	d := requestOf(buf)
	var arena []Range
	d.Header(RequestAssemble)
	if a, b, c, e := d.Uint8(), d.Uint16(), d.Uint32(), d.Uint64(); a != 7 || b != 515 || c != 1<<31 || e != 1<<63 {
		t.Fatalf("integers read back as %d %d %d %d", a, b, c, e)
	}
	if s, e := d.String(64), d.String(0); s != "/job/j0/model/dev2/w" || e != "" {
		t.Fatalf("strings read back as %q and %q", s, e)
	}
	if got := d.Region(&arena); !got.Equal(reg) {
		t.Fatalf("region read back as %v, want %v", got, reg)
	}
	if a, b := d.Region(&arena), d.Region(&arena); a != nil || b != nil {
		t.Fatalf("rank-0 regions read back as %v and %v, want nil", a, b)
	}
	if d.End(); d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(arena) != len(reg) {
		t.Fatalf("arena holds %d ranges, want %d", len(arena), len(reg))
	}
	// Cut anywhere, the stream reads as a dead connection, and the error
	// sticks.
	for n := 0; n < len(buf); n++ {
		d := requestOf(buf[:n])
		var arena []Range
		d.Header(RequestAssemble)
		d.Uint8()
		d.Uint16()
		d.Uint32()
		d.Uint64()
		d.String(64)
		d.String(0)
		d.Region(&arena)
		d.Region(&arena)
		d.Region(&arena)
		if !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("request of %d bytes cut at %d: error = %v, want ErrUnexpectedEOF", len(buf), n, d.Err())
		}
	}
}

func TestRequestReaderRejectsMalformedFields(t *testing.T) {
	header := AppendRequestHeader(nil, RequestBatch)
	withMagic := append([]byte{0xef, 0xbe, 0xad, 0xde}, header[4:]...)
	withVersion := bytes.Clone(header)
	withVersion[4] = 9
	rank17 := append([]byte{17}, make([]byte, 17*16)...)
	for name, c := range map[string]struct {
		body []byte
		read func(d *RequestReader)
	}{
		"bad magic":           {withMagic, func(d *RequestReader) { d.Header(RequestBatch) }},
		"unsupported version": {withVersion, func(d *RequestReader) { d.Header(RequestBatch) }},
		"other kind":          {header, func(d *RequestReader) { d.Header(RequestAssemble) }},
		"string over its cap": {AppendString(nil, "0123456789"), func(d *RequestReader) { d.String(9) }},
		"string over the buffer": {binary.LittleEndian.AppendUint32(nil, requestBufferSize+1),
			func(d *RequestReader) { d.String(math.MaxInt) }},
		"rank over the cap":   {rank17, func(d *RequestReader) { d.Region(new([]Range)) }},
		"inverted range":      {AppendRegion(nil, Region{{Lo: 3, Hi: 1}}), func(d *RequestReader) { d.Region(new([]Range)) }},
		"empty range":         {AppendRegion(nil, Region{{Lo: 2, Hi: 2}}), func(d *RequestReader) { d.Region(new([]Range)) }},
		"negative range":      {AppendRegion(nil, Region{{Lo: -1, Hi: 2}}), func(d *RequestReader) { d.Region(new([]Range)) }},
		"bytes after the end": {[]byte{1, 2}, func(d *RequestReader) { d.Uint8(); d.End() }},
	} {
		d := requestOf(c.body)
		if c.read(d); d.Err() == nil {
			t.Errorf("%s: accepted", name)
		} else if errors.Is(d.Err(), io.ErrUnexpectedEOF) {
			t.Errorf("%s: reported as a cut stream: %v", name, d.Err())
		}
	}
}

// Strings are cut from shared chunks; a later string, or a new chunk,
// must leave the earlier ones as they were read.
func TestRequestStringsSurviveLaterOnes(t *testing.T) {
	var buf []byte
	var want []string
	for i := 0; i < 300; i++ {
		s := strings.Repeat(string(rune('a'+i%26)), 1+i%97)
		want = append(want, s)
		buf = AppendString(buf, s)
	}
	d := requestOf(buf)
	got := make([]string, len(want))
	for i := range got {
		got[i] = d.String(128)
	}
	if d.End(); d.Err() != nil {
		t.Fatal(d.Err())
	}
	d.Reset(bytes.NewReader(AppendString(nil, strings.Repeat("z", 128))))
	d.String(128)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("string %d reads %q after later reads, want %q", i, got[i], want[i])
		}
	}
}
