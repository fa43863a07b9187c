package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int{
		Float32: 4, Float64: 8, Float16: 2, Int64: 8, Int32: 4, Uint8: 1,
	}
	for dt, want := range cases {
		if got := dt.Size(); got != want {
			t.Errorf("%s.Size() = %d, want %d", dt, got, want)
		}
		if !dt.Valid() {
			t.Errorf("%s should be valid", dt)
		}
	}
	if Invalid.Valid() {
		t.Error("Invalid dtype reported valid")
	}
}

func TestParseDTypeRoundTrip(t *testing.T) {
	for _, dt := range []DType{Float32, Float64, Float16, Int64, Int32, Uint8} {
		got, err := ParseDType(dt.String())
		if err != nil || got != dt {
			t.Errorf("ParseDType(%q) = %v, %v", dt.String(), got, err)
		}
	}
	if _, err := ParseDType("float128"); err == nil {
		t.Error("ParseDType accepted unknown name")
	}
}

func TestNewShapeAndBytes(t *testing.T) {
	x := New(Float32, 3, 4, 5)
	if got := x.NumElems(); got != 60 {
		t.Fatalf("NumElems = %d, want 60", got)
	}
	if got := x.NumBytes(); got != 240 {
		t.Fatalf("NumBytes = %d, want 240", got)
	}
	if x.Rank() != 3 || x.Dim(1) != 4 {
		t.Fatalf("bad rank/dim: rank=%d dim1=%d", x.Rank(), x.Dim(1))
	}
	sh := x.Shape()
	sh[0] = 99 // must not alias internal state
	if x.Dim(0) != 3 {
		t.Fatal("Shape() aliases internal shape")
	}
}

func TestScalarTensor(t *testing.T) {
	s := New(Float64)
	if s.NumElems() != 1 || s.NumBytes() != 8 {
		t.Fatalf("scalar: elems=%d bytes=%d", s.NumElems(), s.NumBytes())
	}
	s.SetFloat64(3.5)
	if got := s.Float64At(); got != 3.5 {
		t.Fatalf("scalar value = %v", got)
	}
}

func TestSetGetMultiIndex(t *testing.T) {
	x := New(Float64, 2, 3)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			x.SetFloat64(v, i, j)
			v++
		}
	}
	if got := x.Float64At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	got := x.Float64s()
	for i, want := range []float64{0, 1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("Float64s[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestFillSeqAndClone(t *testing.T) {
	x := New(Int64, 4)
	x.FillSeq(10, 2)
	want := []float64{10, 12, 14, 16}
	for i, w := range want {
		if got := x.Float64At(i); got != w {
			t.Fatalf("FillSeq[%d] = %v, want %v", i, got, w)
		}
	}
	c := x.Clone()
	if !c.Equal(x) {
		t.Fatal("clone not equal")
	}
	c.SetFloat64(99, 0)
	if x.Float64At(0) == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestFillRandDeterministic(t *testing.T) {
	a := New(Float64, 100)
	b := New(Float64, 100)
	a.FillRand(7, 1.0)
	b.FillRand(7, 1.0)
	if !a.Equal(b) {
		t.Fatal("FillRand with equal seeds differs")
	}
	b.FillRand(8, 1.0)
	if a.Equal(b) {
		t.Fatal("FillRand with different seeds identical")
	}
	for _, v := range a.Float64s() {
		if v < -1 || v >= 1 {
			t.Fatalf("FillRand out of range: %v", v)
		}
	}
}

func TestEqual(t *testing.T) {
	a := fromFloat64([]float64{1, 2, 3}, 3)
	b := fromFloat64([]float64{1, 2, 3}, 3)
	if !a.Equal(b) {
		t.Fatal("identical tensors unequal")
	}
	c := fromFloat64([]float64{1, 2, 3.0001}, 3)
	if a.Equal(c) {
		t.Fatal("different tensors equal")
	}
	d := fromFloat64([]float64{1, 2, 3}, 1, 3)
	if a.Equal(d) {
		t.Fatal("shape mismatch treated as equal")
	}
}

func TestFloat16RoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, 2, 1024, -0.25, 65504}
	x := New(Float16, len(vals))
	for i, v := range vals {
		x.SetFloat64(v, i)
		if got := x.Float64At(i); got != v {
			t.Errorf("f16 roundtrip of %v = %v", v, got)
		}
	}
}

func TestFloat16Quick(t *testing.T) {
	// binary16 has 11 significand bits: relative error <= 2^-11 for
	// normal values; check the encode/decode pair stays within that.
	f := func(v float32) bool {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return true
		}
		if math.Abs(float64(v)) > 65000 || (v != 0 && math.Abs(float64(v)) < 1e-4) {
			return true // outside comfortable f16 range
		}
		back := float64(f16ToF32(f32ToF16(v)))
		if v == 0 {
			return back == 0
		}
		rel := math.Abs(back-float64(v)) / math.Abs(float64(v))
		return rel <= 1.0/2048
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat16Specials(t *testing.T) {
	inf := f16ToF32(f32ToF16(float32(math.Inf(1))))
	if !math.IsInf(float64(inf), 1) {
		t.Errorf("+inf roundtrip = %v", inf)
	}
	ninf := f16ToF32(f32ToF16(float32(math.Inf(-1))))
	if !math.IsInf(float64(ninf), -1) {
		t.Errorf("-inf roundtrip = %v", ninf)
	}
	nan := f16ToF32(f32ToF16(float32(math.NaN())))
	if !math.IsNaN(float64(nan)) {
		t.Errorf("NaN roundtrip = %v", nan)
	}
	if v := f16ToF32(f32ToF16(1e6)); !math.IsInf(float64(v), 1) {
		t.Errorf("overflow should saturate to +inf, got %v", v)
	}
}

func TestShapeHelpers(t *testing.T) {
	if ShapeNumElems([]int{2, 3, 4}) != 24 {
		t.Fatal("ShapeNumElems")
	}
	if ShapeNumBytes(Float32, []int{10, 10}) != 400 {
		t.Fatal("ShapeNumBytes")
	}
	if !ShapeEqual([]int{1, 2}, []int{1, 2}) || ShapeEqual([]int{1}, []int{1, 2}) {
		t.Fatal("ShapeEqual")
	}
}

func TestPanicsOnBadConstruction(t *testing.T) {
	mustPanic(t, "negative dim", func() { New(Float32, -1) })
	mustPanic(t, "zero dim", func() { New(Float32, 0, 3) })
	mustPanic(t, "invalid dtype", func() { New(Invalid, 3) })
	mustPanic(t, "index rank", func() { New(Float32, 2).Float64At(0, 0) })
	mustPanic(t, "index range", func() { New(Float32, 2).Float64At(5) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
