package tensor

import (
	"bytes"
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

func BenchmarkSetSlice(b *testing.B) {
	x := New(Float32, 1024, 1024)
	reg := Region{{Lo: 0, Hi: 512}, {Lo: 0, Hi: 1024}}
	src := New(Float32, 512, 1024)
	b.SetBytes(reg.NumBytes(Float32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SetSlice(reg, src)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	x := New(Float32, 512, 512)
	b.SetBytes(int64(x.EncodedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := x.Encode()
		if _, err := ReadFrom(bytes.NewReader(buf)); err != nil {
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

func BenchmarkConcat(b *testing.B) {
	parts := New(Float32, 1024, 1024).Split(0, 8)
	b.SetBytes(4 * 1024 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Concat(0, parts...)
	}
}
