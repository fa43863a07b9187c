package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The math routines below exist for the mini DL system in internal/train.
// They operate on Float64 tensors only; the fast paths read and write the
// backing bytes directly so training loops do not pay interface costs.

// f64 returns the backing storage viewed as float64 values. It panics on
// non-Float64 tensors: the trainer is float64 end to end.
func (t *Tensor) f64() []float64 {
	if t.dtype != Float64 {
		panic(fmt.Sprintf("tensor: math op requires float64 tensor, got %s", t.dtype))
	}
	out := make([]float64, t.NumElems())
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(t.data[i*8:]))
	}
	return out
}

func (t *Tensor) storeF64(vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(t.data[i*8:], math.Float64bits(v))
	}
}

func (t *Tensor) check2D() (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: expected matrix, got shape %v", t.shape))
	}
	return t.shape[0], t.shape[1]
}

// MatMul returns a @ b for 2-D Float64 tensors of shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.check2D()
	k2, n := b.check2D()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	av, bv := a.f64(), b.f64()
	out := New(Float64, m, n)
	ov := make([]float64, m*n)
	for i := 0; i < m; i++ {
		arow := av[i*k : (i+1)*k]
		orow := ov[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			s := arow[p]
			if s == 0 {
				continue
			}
			brow := bv[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += s * brow[j]
			}
		}
	}
	out.storeF64(ov)
	return out
}

// MatMulATB returns aᵀ @ b for shapes (k,m) and (k,n) -> (m,n); used by
// weight-gradient computation.
func MatMulATB(a, b *Tensor) *Tensor {
	k, m := a.check2D()
	k2, n := b.check2D()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulATB inner dims %d vs %d", k, k2))
	}
	av, bv := a.f64(), b.f64()
	out := New(Float64, m, n)
	ov := make([]float64, m*n)
	for p := 0; p < k; p++ {
		arow := av[p*m : (p+1)*m]
		brow := bv[p*n : (p+1)*n]
		for i := 0; i < m; i++ {
			s := arow[i]
			if s == 0 {
				continue
			}
			orow := ov[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += s * brow[j]
			}
		}
	}
	out.storeF64(ov)
	return out
}

// MatMulABT returns a @ bᵀ for shapes (m,k) and (n,k) -> (m,n); used by
// input-gradient computation.
func MatMulABT(a, b *Tensor) *Tensor {
	m, k := a.check2D()
	n, k2 := b.check2D()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulABT inner dims %d vs %d", k, k2))
	}
	av, bv := a.f64(), b.f64()
	out := New(Float64, m, n)
	ov := make([]float64, m*n)
	for i := 0; i < m; i++ {
		arow := av[i*k : (i+1)*k]
		orow := ov[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bv[j*k : (j+1)*k]
			var s float64
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
	out.storeF64(ov)
	return out
}

func sameShapeF64(a, b *Tensor, op string) {
	if !ShapeEqual(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	sameShapeF64(a, b, "Add")
	av, bv := a.f64(), b.f64()
	out := New(Float64, a.shape...)
	for i := range av {
		av[i] += bv[i]
	}
	out.storeF64(av)
	return out
}

// Mul returns the elementwise (Hadamard) product.
func Mul(a, b *Tensor) *Tensor {
	sameShapeF64(a, b, "Mul")
	av, bv := a.f64(), b.f64()
	out := New(Float64, a.shape...)
	for i := range av {
		av[i] *= bv[i]
	}
	out.storeF64(av)
	return out
}

// Scale returns alpha * a.
func Scale(a *Tensor, alpha float64) *Tensor {
	av := a.f64()
	out := New(Float64, a.shape...)
	for i := range av {
		av[i] *= alpha
	}
	out.storeF64(av)
	return out
}

// AddScaledInPlace performs t += alpha * u; the SGD update primitive.
func (t *Tensor) AddScaledInPlace(alpha float64, u *Tensor) {
	sameShapeF64(t, u, "AddScaledInPlace")
	tv, uv := t.f64(), u.f64()
	for i := range tv {
		tv[i] += alpha * uv[i]
	}
	t.storeF64(tv)
}

// ScaleInPlace performs t *= alpha.
func (t *Tensor) ScaleInPlace(alpha float64) {
	tv := t.f64()
	for i := range tv {
		tv[i] *= alpha
	}
	t.storeF64(tv)
}

// Apply returns f mapped over every element.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	av := a.f64()
	out := New(Float64, a.shape...)
	for i := range av {
		av[i] = f(av[i])
	}
	out.storeF64(av)
	return out
}

// AddRowVec adds a 1-D vector of length n to every row of an (m,n)
// matrix; the bias-application primitive.
func AddRowVec(a, v *Tensor) *Tensor {
	m, n := a.check2D()
	if len(v.shape) != 1 || v.shape[0] != n {
		panic(fmt.Sprintf("tensor: AddRowVec vector shape %v for matrix %v", v.shape, a.shape))
	}
	av, vv := a.f64(), v.f64()
	out := New(Float64, m, n)
	for i := 0; i < m; i++ {
		row := av[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += vv[j]
		}
	}
	out.storeF64(av)
	return out
}

// SumRows sums an (m,n) matrix over its rows, producing a length-n
// vector; the bias-gradient primitive.
func SumRows(a *Tensor) *Tensor {
	m, n := a.check2D()
	av := a.f64()
	out := New(Float64, n)
	ov := make([]float64, n)
	for i := 0; i < m; i++ {
		row := av[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			ov[j] += row[j]
		}
	}
	out.storeF64(ov)
	return out
}
