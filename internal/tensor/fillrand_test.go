package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestFillRandDense: deterministic per seed, different per seed, values
// bounded by scale, and every dtype path covered.
func TestFillRandDense(t *testing.T) {
	for _, dt := range []DType{Float32, Float64, Float16} {
		a := New(dt, 8, 3)
		b := New(dt, 8, 3)
		a.FillRandDense(7, 0.05)
		b.FillRandDense(7, 0.05)
		if !a.Equal(b) {
			t.Fatalf("%v: same seed produced different tensors", dt)
		}
		b.FillRandDense(8, 0.05)
		if a.Equal(b) {
			t.Fatalf("%v: different seeds produced identical tensors", dt)
		}
		for i, v := range a.Float64s() {
			if v < -0.06 || v >= 0.06 {
				t.Fatalf("%v: element %d = %v out of [-scale, scale)", dt, i, v)
			}
		}
	}
}

// fillRandDenseClosure is FillRandDense as first written, drawing every
// element through a closure over the generator state: the stream the
// coordinator's golden tensors, and every fingerprint derived from
// them, were recorded with.
func fillRandDenseClosure(t *Tensor, seed int64, scale float64) {
	x := uint64(seed)
	next := func() float64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		return (float64(z>>11)/(1<<53)*2 - 1) * scale
	}
	n := t.NumElems()
	switch t.dtype {
	case Float32:
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(t.data[i*4:], math.Float32bits(float32(next())))
		}
	case Float64:
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(t.data[i*8:], math.Float64bits(next()))
		}
	default:
		for i := 0; i < n; i++ {
			t.setFloat64Flat(i, next())
		}
	}
}

// TestFillRandDenseStreamUnchanged: the closure-free loops write the
// bytes the original did, for every dtype, at several seeds and scales.
func TestFillRandDenseStreamUnchanged(t *testing.T) {
	for _, dt := range allDTypes {
		for _, seed := range []int64{0, 1, 7, -3, 1 << 40, math.MinInt64} {
			for _, scale := range []float64{0.05, 1, 100} {
				got, want := New(dt, 33, 5), New(dt, 33, 5)
				got.FillRandDense(seed, scale)
				fillRandDenseClosure(want, seed, scale)
				if !got.Equal(want) {
					t.Fatalf("%v seed %d scale %v: stream changed", dt, seed, scale)
				}
			}
		}
	}
}

func BenchmarkFillRand(b *testing.B) {
	t := New(Float32, 256, 256)
	b.SetBytes(int64(len(t.data)))
	for i := 0; i < b.N; i++ {
		t.FillRand(int64(i), 0.05)
	}
}
