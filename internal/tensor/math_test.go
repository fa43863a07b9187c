package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fromFloat64 builds a Float64 tensor of the given shape holding vals.
func fromFloat64(vals []float64, shape ...int) *Tensor {
	t := New(Float64, shape...)
	if len(vals) != t.NumElems() {
		panic("fromFloat64: value count does not match the shape")
	}
	for i, v := range vals {
		t.setFloat64Flat(i, v)
	}
	return t
}

// allClose reports whether a and b have one shape and differ by at most
// tol in every element.
func allClose(a, b *Tensor, tol float64) bool {
	if !ShapeEqual(a.shape, b.shape) {
		return false
	}
	for i, n := 0, a.NumElems(); i < n; i++ {
		if math.Abs(a.float64AtFlat(i)-b.float64AtFlat(i)) > tol {
			return false
		}
	}
	return true
}

// transpose is the reference the transposed matmuls are held to.
func transpose(a *Tensor) *Tensor {
	rows, cols := a.check2D()
	out := New(Float64, cols, rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out.SetFloat64(a.Float64At(i, j), j, i)
		}
	}
	return out
}

// split cuts t into parts near-equal pieces along dim.
func split(t *Tensor, dim, parts int) []*Tensor {
	var out []*Tensor
	for _, r := range SplitRanges(t.shape[dim], parts) {
		reg := FullRegion(t.shape)
		reg[dim] = r
		out = append(out, t.Slice(reg))
	}
	return out
}

// concat joins same-shaped-but-for-dim pieces along dim.
func concat(dim int, parts ...*Tensor) *Tensor {
	shape := parts[0].Shape()
	shape[dim] = 0
	for _, p := range parts {
		shape[dim] += p.shape[dim]
	}
	out := New(parts[0].dtype, shape...)
	off := 0
	for _, p := range parts {
		reg := FullRegion(shape)
		reg[dim] = Range{off, off + p.shape[dim]}
		if _, err := CopyRegion(out, reg, p, FullRegion(p.shape)); err != nil {
			panic(err)
		}
		off += p.shape[dim]
	}
	return out
}

func TestMatMul(t *testing.T) {
	a := fromFloat64([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := fromFloat64([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := fromFloat64([]float64{58, 64, 139, 154}, 2, 2)
	if !c.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", c.Float64s(), want.Float64s())
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(Float64, m, k)
		b := New(Float64, k, n)
		a.FillRand(int64(trial), 2)
		b.FillRand(int64(trial+1000), 2)

		ref := MatMul(a, b)
		viaATB := MatMulATB(transpose(a), b)
		viaABT := MatMulABT(a, transpose(b))
		if !allClose(ref, viaATB, 1e-12) {
			t.Fatalf("MatMulATB disagrees at trial %d", trial)
		}
		if !allClose(ref, viaABT, 1e-12) {
			t.Fatalf("MatMulABT disagrees at trial %d", trial)
		}
	}
}

func TestElementwise(t *testing.T) {
	a := fromFloat64([]float64{1, 2, 3}, 3)
	b := fromFloat64([]float64{10, 20, 30}, 3)
	if got := Add(a, b).Float64s(); got[2] != 33 {
		t.Fatalf("Add = %v", got)
	}
	if got := Mul(a, b).Float64s(); got[1] != 40 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Scale(a, -2).Float64s(); got[2] != -6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := Apply(a, func(x float64) float64 { return x * x }).Float64s(); got[2] != 9 {
		t.Fatalf("Apply = %v", got)
	}
	// Inputs unmodified.
	if a.Float64At(0) != 1 || b.Float64At(0) != 10 {
		t.Fatal("elementwise op mutated its input")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := fromFloat64([]float64{1, 2}, 2)
	u := fromFloat64([]float64{10, 10}, 2)
	a.AddScaledInPlace(0.5, u)
	if a.Float64At(0) != 6 || a.Float64At(1) != 7 {
		t.Fatalf("AddScaledInPlace = %v", a.Float64s())
	}
	a.ScaleInPlace(2)
	if a.Float64At(1) != 14 {
		t.Fatalf("ScaleInPlace = %v", a.Float64s())
	}
}

func TestRowOps(t *testing.T) {
	m := fromFloat64([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := fromFloat64([]float64{10, 20, 30}, 3)
	got := AddRowVec(m, v)
	if got.Float64At(1, 2) != 36 || got.Float64At(0, 0) != 11 {
		t.Fatalf("AddRowVec = %v", got.Float64s())
	}
	s := SumRows(m)
	if s.Float64At(0) != 5 || s.Float64At(2) != 9 {
		t.Fatalf("SumRows = %v", s.Float64s())
	}
}

func TestMathPanics(t *testing.T) {
	mustPanic(t, "matmul dims", func() { MatMul(New(Float64, 2, 3), New(Float64, 2, 3)) })
	mustPanic(t, "matmul rank", func() { MatMul(New(Float64, 2), New(Float64, 2, 2)) })
	mustPanic(t, "dtype", func() { MatMul(New(Float32, 2, 2), New(Float32, 2, 2)) })
	mustPanic(t, "add shape", func() { Add(New(Float64, 2), New(Float64, 3)) })
	mustPanic(t, "rowvec", func() { AddRowVec(New(Float64, 2, 3), New(Float64, 2)) })
}

// TestMatMulBlockDecomposition checks the algebra the tensor-parallel
// trainer relies on: a column-split matmul concatenates, a row-split
// matmul sums. These identities make TP-degree changes numerically
// invisible, which is the crux of Fig. 16c.
func TestMatMulBlockDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		m, k, n := 2+rng.Intn(5), 2+rng.Intn(6), 2+rng.Intn(6)
		x := New(Float64, m, k)
		w := New(Float64, k, n)
		x.FillRand(int64(trial), 1)
		w.FillRand(int64(trial+99), 1)
		ref := MatMul(x, w)

		// Column parallelism: split W along columns (dim 1).
		parts := 1 + rng.Intn(n)
		var colOuts []*Tensor
		for _, wi := range split(w, 1, parts) {
			colOuts = append(colOuts, MatMul(x, wi))
		}
		if !allClose(concat(1, colOuts...), ref, 1e-9) {
			t.Fatalf("column-parallel decomposition failed (trial %d)", trial)
		}

		// Row parallelism: split W along rows (dim 0) and X along cols.
		parts = 1 + rng.Intn(k)
		wRows := split(w, 0, parts)
		xCols := split(x, 1, parts)
		sum := New(Float64, m, n)
		for i := range wRows {
			sum = Add(sum, MatMul(xCols[i], wRows[i]))
		}
		if !allClose(sum, ref, 1e-9) {
			t.Fatalf("row-parallel decomposition failed (trial %d)", trial)
		}
	}
}
