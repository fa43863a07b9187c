package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestFrameStreamHeaderRoundTrip(t *testing.T) {
	for _, flags := range []uint16{0, FrameFlagCRC} {
		got, err := DecodeFrameStreamHeader(bytes.NewReader(EncodeFrameStreamHeader(flags)))
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
	buf := EncodeFrameStreamHeader(0)
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
	{"end frame with nonzero count", EncodeFrameHeader(FrameHeader{Index: FrameEndIndex, Count: 1})},
	{"end frame with nonzero length", EncodeFrameHeader(FrameHeader{Index: FrameEndIndex, Length: 8})},
	{"zero entry count", EncodeFrameHeader(FrameHeader{Index: 0, Count: 0, Length: 4})},
	{"implausible length", EncodeFrameHeader(FrameHeader{Index: 0, Count: 1, Length: 1 << 63})},
}

func TestFrameStreamHeaderRejectsMalformed(t *testing.T) {
	for _, c := range malformedStreamHeaders {
		if _, err := DecodeFrameStreamHeader(bytes.NewReader(c.buf)); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
	// Truncated header: a cut connection must read as ErrUnexpectedEOF so
	// the store client treats it as retryable.
	whole := EncodeFrameStreamHeader(0)
	for n := 0; n < len(whole); n++ {
		if _, err := DecodeFrameStreamHeader(bytes.NewReader(whole[:n])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated header (%d bytes) error = %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

func TestFrameHeaderRoundTrip(t *testing.T) {
	want := FrameHeader{Index: 7, Count: 3, Length: 1 << 20}
	got, err := DecodeFrameHeaderFrom(bytes.NewReader(EncodeFrameHeader(want)))
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
	got, err := DecodeFrameHeaderFrom(bytes.NewReader(EncodeEndFrame()))
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
	whole := EncodeFrameHeader(FrameHeader{Index: 2, Count: 1, Length: 64})
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
	buf := EncodeFrameStreamHeader(flags)
	for i, p := range payloads {
		buf = append(buf, EncodeFrameHeader(FrameHeader{Index: uint32(i), Count: 1, Length: uint64(len(p))})...)
		buf = append(buf, p...)
		if flags&FrameFlagCRC != 0 {
			buf = append(buf, 0, 0, 0, 0) // the walker skips trailers; store verifies them
		}
	}
	return append(buf, EncodeEndFrame()...)
}

// hugeFrame is a stream whose only frame claims 2^62 payload bytes and
// delivers none.
var hugeFrame = append(EncodeFrameStreamHeader(0), EncodeFrameHeader(FrameHeader{Count: 1, Length: 1 << 62})...)

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
		f.Add(append(EncodeFrameStreamHeader(FrameFlagCRC), c.buf...))
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
