package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense, row-major n-dimensional array. The zero value is not
// usable; construct tensors with New, or FromBytes over bytes handed
// over.
//
// A Tensor owns its backing storage. Slicing copies data; the
// package never aliases two tensors to the same bytes, which keeps the
// Tensor Store free of hidden sharing across HTTP and goroutine
// boundaries.
type Tensor struct {
	dtype DType
	shape []int
	data  []byte
}

// New allocates a zero-filled tensor with the given element type and
// shape. A nil or empty shape produces a scalar holding one element.
// All dimensions must be positive.
func New(dt DType, shape ...int) *Tensor {
	if !dt.Valid() {
		panic("tensor: New with invalid dtype")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return &Tensor{
		dtype: dt,
		shape: append([]int(nil), shape...),
		data:  make([]byte, n*dt.Size()),
	}
}

// FromBytes builds a tensor of the given element type and shape over
// data, which must be exactly its size; the bytes are used as they are,
// not zeroed or copied. The tensor takes data over: the caller keeps no
// other use of it. This is how a store reuses a buffer it freed.
func FromBytes(dt DType, data []byte, shape ...int) *Tensor {
	if !dt.Valid() || slices.ContainsFunc(shape, func(d int) bool { return d <= 0 }) {
		panic(fmt.Sprintf("tensor: FromBytes with dtype %d, shape %v", dt, shape))
	}
	if n := ShapeNumBytes(dt, shape); n != int64(len(data)) {
		panic(fmt.Sprintf("tensor: FromBytes of %d bytes for %s %v (%d bytes)", len(data), dt, shape, n))
	}
	return &Tensor{dtype: dt, shape: append([]int(nil), shape...), data: data}
}

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dtype }

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// HasShape reports whether t's shape is shape, without the copy Shape
// makes.
func (t *Tensor) HasShape(shape []int) bool { return ShapeEqual(t.shape, shape) }

// InBounds reports whether reg is a well-formed region of t: one valid
// range per dimension, none past the dimension's end.
func (t *Tensor) InBounds(reg Region) bool { return reg.Valid(t.shape) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NumElems returns the total number of elements.
func (t *Tensor) NumElems() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// NumBytes returns the size of the backing storage in bytes.
func (t *Tensor) NumBytes() int { return len(t.data) }

// Data exposes the backing bytes. Callers must treat the slice as
// read-only unless they own the tensor exclusively.
func (t *Tensor) Data() []byte { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		dtype: t.dtype,
		shape: append([]int(nil), t.shape...),
		data:  make([]byte, len(t.data)),
	}
	copy(c.data, t.data)
	return c
}

// flatIndex converts a multi-index into a flat element index, panicking
// on out-of-range coordinates.
func (t *Tensor) flatIndex(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	flat := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		flat = flat*t.shape[i] + x
	}
	return flat
}

// Float64At returns the element at idx converted to float64. It works for
// every numeric dtype (Float16 is decoded from binary16).
func (t *Tensor) Float64At(idx ...int) float64 {
	return t.float64AtFlat(t.flatIndex(idx))
}

func (t *Tensor) float64AtFlat(flat int) float64 {
	off := flat * t.dtype.Size()
	switch t.dtype {
	case Float32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(t.data[off:])))
	case Float64:
		return math.Float64frombits(binary.LittleEndian.Uint64(t.data[off:]))
	case Float16:
		return float64(f16ToF32(binary.LittleEndian.Uint16(t.data[off:])))
	case Int64:
		return float64(int64(binary.LittleEndian.Uint64(t.data[off:])))
	case Int32:
		return float64(int32(binary.LittleEndian.Uint32(t.data[off:])))
	case Uint8:
		return float64(t.data[off])
	}
	panic("tensor: Float64At on invalid dtype")
}

// SetFloat64 stores v (converted to the tensor's dtype) at idx.
func (t *Tensor) SetFloat64(v float64, idx ...int) {
	t.setFloat64Flat(t.flatIndex(idx), v)
}

func (t *Tensor) setFloat64Flat(flat int, v float64) {
	putFloat64(t.dtype, t.data[flat*t.dtype.Size():], v)
}

// putFloat64 encodes v, converted to dt, at the head of b.
func putFloat64(dt DType, b []byte, v float64) {
	switch dt {
	case Float32:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(v)))
	case Float64:
		binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	case Float16:
		binary.LittleEndian.PutUint16(b, f32ToF16(float32(v)))
	case Int64:
		binary.LittleEndian.PutUint64(b, uint64(int64(v)))
	case Int32:
		binary.LittleEndian.PutUint32(b, uint32(int32(v)))
	case Uint8:
		b[0] = uint8(v)
	default:
		panic("tensor: SetFloat64 on invalid dtype")
	}
}

// FillSeq sets element i to start + i*step; useful for tests that must
// recognize where every element ended up after a reconfiguration.
func (t *Tensor) FillSeq(start, step float64) {
	for i, n := 0, t.NumElems(); i < n; i++ {
		t.setFloat64Flat(i, start+float64(i)*step)
	}
}

// FillRand fills the tensor with uniform values in [-scale, scale) from a
// deterministic source seeded by seed.
func (t *Tensor) FillRand(seed int64, scale float64) {
	rng := rand.New(rand.NewSource(seed))
	for i, n := 0, t.NumElems(); i < n; i++ {
		t.setFloat64Flat(i, (rng.Float64()*2-1)*scale)
	}
}

// FillRandDense fills t with deterministic pseudo-random values in
// [-scale, scale) from a splitmix64 stream. It has the same
// deterministic-per-seed contract as FillRand but avoids math/rand's
// expensive per-call source seeding and interface dispatch, so callers
// that materialize whole model states (many tensors per job) stay off
// the RNG setup cost. The two generators produce different streams.
func (t *Tensor) FillRandDense(seed int64, scale float64) {
	fillRand(t.data, t.dtype, uint64(seed)+splitmixGamma, scale)
}

// fillRand writes the elements drawn from splitmix64 states x, x+gamma,
// x+2·gamma, ... into d as dt: the one element kernel FillRandDense,
// RandDense.FillRegion and RandDense.EqualRegion share.
func fillRand(d []byte, dt DType, x uint64, scale float64) {
	switch dt {
	case Float32:
		// Two elements a turn: their mixes are independent, so the core
		// overlaps them. Walking the slice instead of indexing it lets
		// the compiler drop the bounds check per element.
		for ; len(d) >= 8; d = d[8:] {
			u, v := splitmixUnit(x), splitmixUnit(x+splitmixGamma)
			binary.LittleEndian.PutUint32(d, math.Float32bits(float32(u*scale)))
			binary.LittleEndian.PutUint32(d[4:], math.Float32bits(float32(v*scale)))
			x += splitmixGamma2
		}
		if len(d) >= 4 {
			binary.LittleEndian.PutUint32(d, math.Float32bits(float32(splitmixUnit(x)*scale)))
		}
	case Float64:
		for ; len(d) >= 16; d = d[16:] {
			u, v := splitmixUnit(x), splitmixUnit(x+splitmixGamma)
			binary.LittleEndian.PutUint64(d, math.Float64bits(u*scale))
			binary.LittleEndian.PutUint64(d[8:], math.Float64bits(v*scale))
			x += splitmixGamma2
		}
		if len(d) >= 8 {
			binary.LittleEndian.PutUint64(d, math.Float64bits(splitmixUnit(x)*scale))
		}
	default:
		for es := dt.Size(); len(d) >= es; d = d[es:] {
			putFloat64(dt, d, splitmixUnit(x)*scale)
			x += splitmixGamma
		}
	}
}

// splitmixGamma is the increment of the splitmix64 state, and
// splitmixGamma2 twice that, modulo 2^64.
const (
	splitmixGamma  = 0x9e3779b97f4a7c15
	splitmixGamma2 = 0x3c6ef372fe94f82a
)

// splitmixUnit mixes the splitmix64 state x into a value in [-1, 1): 53
// random bits to [0, 1), doubled and shifted. A leaf small enough to
// inline into the fill loops.
func splitmixUnit(x uint64) float64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// x>>11 fits in 53 bits, so the signed conversion is exact and
	// spares the unsigned one's branch.
	return float64(int64(x>>11))/(1<<53)*2 - 1
}

// Float64s returns all elements converted to float64 in row-major order.
func (t *Tensor) Float64s() []float64 {
	out := make([]float64, t.NumElems())
	for i := range out {
		out[i] = t.float64AtFlat(i)
	}
	return out
}

// Equal reports whether u has the same dtype, shape and bytes as t. The
// comparison is of bits, not values: NaNs with the same payload are
// equal, +0 and -0 are not.
func (t *Tensor) Equal(u *Tensor) bool {
	return t.dtype == u.dtype && ShapeEqual(t.shape, u.shape) && bytes.Equal(t.data, u.data)
}

func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%s, shape=%v, %dB)", t.dtype, t.shape, len(t.data))
}

// ShapeNumElems returns the number of elements implied by shape.
func ShapeNumElems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ShapeNumBytes returns the byte size of a tensor of the given dtype and
// shape without materializing it. The performance plane of the
// experiments uses this to account for full-scale model state.
func ShapeNumBytes(dt DType, shape []int) int64 {
	return int64(ShapeNumElems(shape)) * int64(dt.Size())
}

// ShapeEqual reports whether two shapes are identical.
func ShapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// f16ToF32 decodes an IEEE 754 binary16 value.
func f16ToF32(h uint16) float32 {
	sign := uint32(h>>15) & 1
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h) & 0x3ff
	var bits uint32
	switch {
	case exp == 0 && frac == 0: // signed zero
		bits = sign << 31
	case exp == 0: // subnormal: normalize
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= 0x3ff
		bits = sign<<31 | e<<23 | frac<<13
	case exp == 0x1f: // inf / NaN
		bits = sign<<31 | 0xff<<23 | frac<<13
	default:
		bits = sign<<31 | (exp-15+127)<<23 | frac<<13
	}
	return math.Float32frombits(bits)
}

// f32ToF16 encodes a float32 as IEEE 754 binary16 with round-to-nearest-
// even, saturating to infinity.
func f32ToF16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23)&0xff - 127 + 15
	frac := bits & 0x7fffff
	switch {
	case int32(bits>>23)&0xff == 0xff: // inf / NaN
		if frac != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00
	case exp >= 0x1f: // overflow -> inf
		return sign | 0x7c00
	case exp <= 0:
		if exp < -10 {
			return sign // underflow to zero
		}
		// subnormal
		frac |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		v := frac >> shift
		if frac&(half|((v&1)<<shift))|frac&(half-1) != 0 && frac&half != 0 {
			v++
		}
		return sign | uint16(v)
	default:
		v := uint16(exp)<<10 | uint16(frac>>13)
		// round to nearest even on the truncated 13 bits
		rem := frac & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && v&1 == 1) {
			v++
		}
		return sign | v
	}
}
