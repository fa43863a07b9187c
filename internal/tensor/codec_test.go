package tensor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// decode reads exactly one encoded tensor from buf: trailing bytes are
// an error.
func decode(buf []byte) (*Tensor, error) {
	r := bytes.NewReader(buf)
	t, err := DecodeFrom(r)
	if err == nil && r.Len() != 0 {
		return nil, errors.New("trailing bytes after encoded tensor")
	}
	return t, err
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, dt := range []DType{Float32, Float64, Float16, Int64, Int32, Uint8} {
		x := New(dt, 3, 5)
		x.FillSeq(1, 1)
		buf := x.Encode()
		if len(buf) != x.EncodedSize() {
			t.Fatalf("%s: encoded %d bytes, EncodedSize says %d", dt, len(buf), x.EncodedSize())
		}
		y, err := decode(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", dt, err)
		}
		if !y.Equal(x) {
			t.Fatalf("%s: roundtrip mismatch", dt)
		}
	}
}

func TestEncodeDecodeScalar(t *testing.T) {
	x := New(Float64)
	x.SetFloat64(42)
	y, err := decode(x.Encode())
	if err != nil || y.Float64At() != 42 {
		t.Fatalf("scalar roundtrip: %v, %v", y, err)
	}
}

func TestWriteToReadFrom(t *testing.T) {
	x := seqTensor(Int64, 2, 2)
	var buf bytes.Buffer
	n, err := x.WriteTo(&buf)
	if err != nil || n != int64(x.EncodedSize()) {
		t.Fatalf("WriteTo: n=%d err=%v", n, err)
	}
	y, err := decode(buf.Bytes())
	if err != nil || !y.Equal(x) {
		t.Fatalf("decode mismatch: %v", err)
	}
}

// goodEncoding is a well-formed 4x4 float32 tensor on the wire.
var goodEncoding = seqTensor(Float32, 4, 4).Encode()

// header encodes a wire header declaring the given dims, with no
// payload behind it.
func header(dt DType, dims ...uint64) []byte {
	buf := EncodeHeader(dt, make([]int, len(dims)))
	for i, d := range dims {
		binary.LittleEndian.PutUint64(buf[HeaderSize(0)+8*i:], d)
	}
	return buf
}

// malformedEncodings is every way an encoded tensor can be wrong; each
// must be refused, and each seeds FuzzDecodeFrom.
var malformedEncodings = []struct {
	name string
	buf  []byte
}{
	{"empty", nil},
	{"short", goodEncoding[:6]},
	{"bad magic", corrupt(goodEncoding, 0, goodEncoding[0]^0xff)},
	{"bad version", corrupt(goodEncoding, 4, 0x7f)},
	{"bad dtype", corrupt(goodEncoding, 6, 0xee)},
	{"dtype high byte", corrupt(goodEncoding, 7, 0x30)}, // found by FuzzDecodeFrom: read as the low byte's dtype
	{"huge rank", corrupt(goodEncoding, 8, 200)},
	{"truncated shape", goodEncoding[:HeaderSize(2)-1]},
	{"truncated payload", goodEncoding[:len(goodEncoding)-1]},
	{"extra bytes", append(append([]byte(nil), goodEncoding...), 0)},
	{"zero dim", header(Float32, 0, 4)},
	{"negative dim", header(Float32, 1<<63, 4)},
	// 2^32 x 2^32 elements: the product wraps to 0 in 64 bits, so a
	// decoder that multiplied unchecked took the empty payload for a
	// complete tensor.
	{"element count overflows", header(Float32, 1<<32, 1<<32)},
	{"byte count overflows", header(Float64, 1<<60)},
	{"declares 2^61 bytes, sends none", hugeEncoding},
}

// hugeEncoding is a header whose shape is representable (it passes the
// overflow check) but whose 2^61 payload bytes never arrive.
var hugeEncoding = header(Uint8, 1<<61)

func corrupt(buf []byte, at int, b byte) []byte {
	out := append([]byte(nil), buf...)
	out[at] = b
	return out
}

func TestDecodeRejectsCorruption(t *testing.T) {
	for _, c := range malformedEncodings {
		if _, err := decode(c.buf); err == nil {
			t.Errorf("%s: accepted corrupt input", c.name)
		}
	}
}

// A declared shape is never trusted with memory: the payload buffer
// grows with the bytes that arrive, so a header claiming 2^61 bytes
// costs one chunk until the bytes fail to come.
func TestDecodeFromDoesNotAllocateFromDeclaredLength(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeFrom(bytes.NewReader(hugeEncoding))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("missing payload error = %v, want EOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 2*decodeChunk {
		t.Fatalf("decoding a header that declares 2^61 bytes allocated %d bytes", n)
	}
}

// A payload larger than the first chunk arrives intact through the
// growing buffer, however the reader fragments it.
func TestDecodeFromGrowsPastFirstChunk(t *testing.T) {
	x := New(Uint8, 3*decodeChunk+17)
	rand.New(rand.NewSource(9)).Read(x.data) //nolint:errcheck // math/rand Read never fails
	for _, chunk := range []int{1 << 30, 64<<10 + 1} {
		y, err := DecodeFrom(iotest(x.Encode(), chunk))
		if err != nil || !y.Equal(x) {
			t.Fatalf("chunk %d: err=%v, equal=%v", chunk, err, err == nil && y.Equal(x))
		}
		if len(y.data) != cap(y.data) {
			t.Fatalf("chunk %d: backing buffer %d bytes for a %d-byte tensor", chunk, cap(y.data), len(y.data))
		}
	}
}

// FuzzDecodeFrom throws arbitrary bytes at the tensor decoder a store
// client runs on peer responses: it never panics, whatever it accepts
// re-encodes to exactly the bytes it consumed, and that encoding cut
// anywhere short fails.
func FuzzDecodeFrom(f *testing.F) {
	for _, c := range malformedEncodings {
		f.Add(c.buf)
	}
	for n := 0; n <= len(goodEncoding); n++ {
		f.Add(goodEncoding[:n])
	}
	f.Add(New(Float64).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		x, err := DecodeFrom(r)
		if err != nil {
			return
		}
		used := data[:len(data)-r.Len()]
		if !bytes.Equal(x.Encode(), used) {
			t.Fatalf("accepted %d bytes that are not the encoding of the %v %v tensor decoded from them", len(used), x.DType(), x.Shape())
		}
		for n := 0; n < len(used); n++ {
			if _, err := DecodeFrom(bytes.NewReader(used[:n])); err == nil {
				t.Fatalf("encoding of %d bytes cut at %d accepted", len(used), n)
			}
		}
	})
}

func TestCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dts := []DType{Float32, Float64, Float16, Int64, Int32, Uint8}
		dt := dts[r.Intn(len(dts))]
		rank := r.Intn(4)
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + r.Intn(6)
		}
		x := New(dt, shape...)
		r.Read(x.data) //nolint:errcheck // math/rand Read never fails
		y, err := decode(x.Encode())
		return err == nil && y.Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
