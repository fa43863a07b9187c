package tensor

import (
	"bytes"
	"hash/crc32"
	"io"
	"testing"
)

func BenchmarkSliceContiguous(b *testing.B) {
	x := New(Float32, 1024, 1024) // 4 MB
	reg := Region{{Lo: 256, Hi: 768}, {Lo: 0, Hi: 1024}}
	b.SetBytes(reg.NumBytes(Float32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Slice(reg)
	}
}

func BenchmarkSliceStrided(b *testing.B) {
	x := New(Float32, 1024, 1024)
	reg := Region{{Lo: 0, Hi: 1024}, {Lo: 256, Hi: 768}} // strided columns
	b.SetBytes(reg.NumBytes(Float32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Slice(reg)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	x := New(Float32, 512, 512)
	b.SetBytes(int64(x.EncodedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := x.Encode()
		if _, err := DecodeFrom(bytes.NewReader(buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	x := New(Float64, 128, 128)
	y := New(Float64, 128, 128)
	x.FillRand(1, 1)
	y.FillRand(2, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(x, y)
	}
}

// The kernel floor suite: every per-byte primitive a job's state passes
// through on its way into, between and out of the stores, each run over
// the same kernelBytes of payload so that its time can be held against
// a builtin copy of that many bytes — the floor the hardware gives.
// TestKernelsNearCopySpeed (kernels_test.go) holds the ratios inside
// one process; the Benchmark* functions below print the GB/s.

const kernelBytes = 8 << 20

// stridedRun is the run length of the strided kernels: a last-dimension
// split whose rows are 256 bytes, the small end of what the datapath
// scatters (wire-migrate-small's tensors).
const stridedRun = 256

// kernel is one row of the floor table. setup builds the buffers and
// returns the operation, which moves or reads kernelBytes per call.
// gated kernels are memory-bound loops around copy or a compare and
// must stay within kernelGate of the copy floor.
type kernel struct {
	name  string
	gated bool
	setup func() func()
}

// What New and CRC32C produce goes here, so neither is optimized away.
var (
	kernelSink *Tensor
	kernelSum  uint32
)

func kernels() []kernel {
	const rows, cols = 2048, 1024 // Float32: kernelBytes
	full := Region{{0, rows}, {0, cols}}
	// The strided pair: a tensor of twice kernelBytes whose middle
	// columns — stridedRun bytes of every row — are the region.
	const sRows, sCols = kernelBytes / stridedRun, 2 * stridedRun / 4
	mid := Region{{0, sRows}, {sCols / 4, 3 * sCols / 4}}
	filled := func(shape ...int) *Tensor {
		t := New(Float32, shape...)
		t.FillRandDense(1, 1)
		return t
	}
	return []kernel{
		{"copy", false, func() func() {
			src, dst := filled(rows, cols).data, make([]byte, kernelBytes)
			return func() { copy(dst, src) }
		}},
		{"Equal", true, func() func() {
			t := filled(rows, cols)
			u := t.Clone()
			return func() {
				if !t.Equal(u) {
					panic("clone differs")
				}
			}
		}},
		{"CopyRegion/contiguous", true, func() func() {
			// A leading-dimension slice: what a pipeline or data-parallel
			// re-split moves.
			src, dst := filled(2*rows, cols), New(Float32, rows, cols)
			reg := Region{{rows / 2, rows/2 + rows}, {0, cols}}
			return func() { mustCopy(CopyRegion(dst, full, src, reg)) }
		}},
		{"CopyRegion/strided", false, func() func() {
			src, dst := filled(sRows, sCols), New(Float32, sRows, sCols/2)
			whole := FullRegion(dst.shape)
			return func() { mustCopy(CopyRegion(dst, whole, src, mid)) }
		}},
		{"WriteRegion/contiguous", true, func() func() {
			payload, dst := filled(rows, cols).data, New(Float32, rows, cols)
			rd := bytes.NewReader(nil)
			return func() {
				rd.Reset(payload)
				mustCopy(dst.WriteRegion(full, rd))
			}
		}},
		{"WriteRegion/strided", false, func() func() {
			payload, dst := filled(rows, cols).data, New(Float32, sRows, sCols)
			rd := bytes.NewReader(nil)
			return func() {
				rd.Reset(payload)
				mustCopy(dst.WriteRegion(mid, rd))
			}
		}},
		{"View.WriteTo/strided", false, func() func() {
			v := filled(sRows, sCols).View(mid)
			w := &sliceWriter{buf: make([]byte, kernelBytes)}
			return func() {
				w.n = 0
				mustCopy(v.WriteTo(w))
			}
		}},
		{"View.Reader/strided", true, func() func() {
			// What net/http does with an upload body: sequential 32 KiB
			// Reads of the same view.
			v := filled(sRows, sCols).View(mid)
			buf := make([]byte, 32<<10)
			return func() {
				r, total := v.Reader(), 0
				for {
					n, err := r.Read(buf)
					total += n
					if err == io.EOF {
						break
					}
				}
				mustCopy(int64(total), nil)
			}
		}},
		{"FillRandDense", false, func() func() {
			t := New(Float32, rows, cols)
			return func() { t.FillRandDense(1, 0.05) }
		}},
		{"RandDense.Fill/strided", false, func() func() {
			// What a deploy generates for a last-dimension split: the middle
			// columns of a tensor that is never materialized.
			r := RandDense{DType: Float32, Shape: []int{sRows, sCols}, Seed: 1, Scale: 0.05}
			dst := NewFromRegion(Float32, mid)
			return func() {
				if err := r.FillRegion(mid, dst, nil); err != nil {
					panic(err)
				}
			}
		}},
		{"RandDense.Equal", false, func() func() {
			// What a verify does per sub-tensor read back: generate and
			// compare in one pass.
			r := RandDense{DType: Float32, Shape: []int{2 * rows, cols}, Seed: 1, Scale: 0.05}
			reg := Region{{rows / 2, rows/2 + rows}, {0, cols}}
			got := NewFromRegion(Float32, reg)
			if err := r.FillRegion(reg, got, nil); err != nil {
				panic(err)
			}
			return func() {
				if !r.EqualRegion(reg, got) {
					panic("generated region differs")
				}
			}
		}},
		{"New", false, func() func() {
			// Allocate, zero, and touch each page once: a span fresh from
			// the OS is zeroed by the page fault, a recycled one by the
			// runtime, and a destination buffer pays one or the other
			// before its first byte lands.
			return func() {
				kernelSink = New(Float32, rows, cols)
				for off := 0; off < kernelBytes; off += 4096 {
					kernelSink.data[off] = 1
				}
			}
		}},
		{"CRC32C", false, func() func() {
			// As store's frame reader and writer call it: the Castagnoli
			// table from MakeTable, one Update per piece of the stream
			// (256 KiB, the size of the wire buffers).
			payload, table := filled(rows, cols).data, crc32.MakeTable(crc32.Castagnoli)
			return func() {
				var sum uint32
				for p := payload; len(p) > 0; p = p[256<<10:] {
					sum = crc32.Update(sum, table, p[:256<<10])
				}
				kernelSum = sum
			}
		}},
	}
}

func mustCopy(n int64, err error) {
	if err != nil || n != kernelBytes {
		panic("kernel moved the wrong number of bytes")
	}
}

// sliceWriter copies what it is given into a fixed buffer: the cheapest
// writer there is, so View.WriteTo's own per-run cost shows.
type sliceWriter struct {
	buf []byte
	n   int
}

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.n += copy(w.buf[w.n:], p)
	return len(p), nil
}

func benchKernel(b *testing.B, name string) {
	for _, k := range kernels() {
		if k.name != name {
			continue
		}
		op := k.setup()
		b.SetBytes(kernelBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		return
	}
	b.Fatalf("no kernel %q in the floor table", name)
}

func BenchmarkCopyFloor(b *testing.B)             { benchKernel(b, "copy") }
func BenchmarkEqual(b *testing.B)                 { benchKernel(b, "Equal") }
func BenchmarkCopyRegionContiguous(b *testing.B)  { benchKernel(b, "CopyRegion/contiguous") }
func BenchmarkCopyRegionStrided(b *testing.B)     { benchKernel(b, "CopyRegion/strided") }
func BenchmarkWriteRegionContiguous(b *testing.B) { benchKernel(b, "WriteRegion/contiguous") }
func BenchmarkWriteRegionStrided(b *testing.B)    { benchKernel(b, "WriteRegion/strided") }
func BenchmarkViewWriteToStrided(b *testing.B)    { benchKernel(b, "View.WriteTo/strided") }
func BenchmarkViewReadStrided(b *testing.B)       { benchKernel(b, "View.Reader/strided") }
func BenchmarkFillRandDense(b *testing.B)         { benchKernel(b, "FillRandDense") }
func BenchmarkRandDenseFillStrided(b *testing.B)  { benchKernel(b, "RandDense.Fill/strided") }
func BenchmarkRandDenseEqual(b *testing.B)        { benchKernel(b, "RandDense.Equal") }
func BenchmarkNew(b *testing.B)                   { benchKernel(b, "New") }
func BenchmarkCRC32C(b *testing.B)                { benchKernel(b, "CRC32C") }
