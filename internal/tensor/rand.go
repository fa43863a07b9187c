package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
)

// RandDense is the tensor FillRandDense(Seed, Scale) fills at the given
// dtype and shape, never materialized. FillRandDense is counter-based:
// element k in row-major order is splitmixUnit(Seed + (k+1)·gamma)·Scale,
// so any region of the tensor is a function of its coordinates alone and
// can be written, or checked, without the rest of it.
type RandDense struct {
	DType DType   `json:"dtype"`
	Shape []int   `json:"shape"`
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
}

// FillRegion writes region reg of r into the region at of dst (nil for
// all of dst): the bytes FillRandDense writes into a tensor of r's shape,
// sliced to reg, without the tensor.
func (r RandDense) FillRegion(reg Region, dst *Tensor, at Region) error {
	if err := r.check(reg, dst, at); err != nil {
		return err
	}
	es := r.DType.Size()
	r.runs(reg, dst.shape, at, func(k, j, n int) bool {
		x := r.start(k)
		d := dst.data[j*es : (j+n)*es]
		switch r.DType {
		case Float32:
			// Two elements a turn: their mixes are independent, so the
			// core overlaps them.
			for ; len(d) >= 8; d = d[8:] {
				u, v := splitmixUnit(x), splitmixUnit(x+splitmixGamma)
				binary.LittleEndian.PutUint32(d, math.Float32bits(float32(u*r.Scale)))
				binary.LittleEndian.PutUint32(d[4:], math.Float32bits(float32(v*r.Scale)))
				x += splitmixGamma2
			}
			if len(d) >= 4 {
				binary.LittleEndian.PutUint32(d, math.Float32bits(float32(splitmixUnit(x)*r.Scale)))
			}
		case Float64:
			for ; len(d) >= 16; d = d[16:] {
				u, v := splitmixUnit(x), splitmixUnit(x+splitmixGamma)
				binary.LittleEndian.PutUint64(d, math.Float64bits(u*r.Scale))
				binary.LittleEndian.PutUint64(d[8:], math.Float64bits(v*r.Scale))
				x += splitmixGamma2
			}
			if len(d) >= 8 {
				binary.LittleEndian.PutUint64(d, math.Float64bits(splitmixUnit(x)*r.Scale))
			}
		default:
			for ; len(d) >= es; d = d[es:] {
				putFloat64(r.DType, d, splitmixUnit(x)*r.Scale)
				x += splitmixGamma
			}
		}
		return true
	})
	return nil
}

// EqualRegion reports whether t holds exactly region reg of r: t has r's
// dtype and reg's shape, and every byte is the one FillRegion would
// write there. The comparison is of bits, as Tensor.Equal's is (NaN
// payloads must match, +0 and -0 differ), and it generates and compares
// in one pass, so no second buffer is filled.
func (r RandDense) EqualRegion(reg Region, t *Tensor) bool {
	if t.dtype != r.DType || !reg.Valid(r.Shape) || len(t.shape) != len(reg) {
		return false
	}
	for d, rg := range reg {
		if rg.Len() != t.shape[d] {
			return false
		}
	}
	es := r.DType.Size()
	return r.runs(reg, t.shape, nil, func(k, j, n int) bool {
		x := r.start(k)
		d := t.data[j*es : (j+n)*es]
		switch r.DType {
		case Float32:
			for ; len(d) >= 8; d = d[8:] {
				u, v := splitmixUnit(x), splitmixUnit(x+splitmixGamma)
				if binary.LittleEndian.Uint32(d) != math.Float32bits(float32(u*r.Scale)) ||
					binary.LittleEndian.Uint32(d[4:]) != math.Float32bits(float32(v*r.Scale)) {
					return false
				}
				x += splitmixGamma2
			}
			if len(d) >= 4 && binary.LittleEndian.Uint32(d) != math.Float32bits(float32(splitmixUnit(x)*r.Scale)) {
				return false
			}
		case Float64:
			for ; len(d) >= 16; d = d[16:] {
				u, v := splitmixUnit(x), splitmixUnit(x+splitmixGamma)
				if binary.LittleEndian.Uint64(d) != math.Float64bits(u*r.Scale) ||
					binary.LittleEndian.Uint64(d[8:]) != math.Float64bits(v*r.Scale) {
					return false
				}
				x += splitmixGamma2
			}
			if len(d) >= 8 && binary.LittleEndian.Uint64(d) != math.Float64bits(splitmixUnit(x)*r.Scale) {
				return false
			}
		default:
			var want [8]byte
			for ; len(d) >= es; d = d[es:] {
				putFloat64(r.DType, want[:], splitmixUnit(x)*r.Scale)
				if string(want[:es]) != string(d[:es]) {
					return false
				}
				x += splitmixGamma
			}
		}
		return true
	})
}

// start is the splitmix64 state element k is drawn from: FillRandDense
// adds gamma to the seed once before every element.
func (r RandDense) start(k int) uint64 {
	return uint64(r.Seed) + uint64(k+1)*splitmixGamma
}

// check validates a FillRegion: reg inside r, dst of r's dtype, and the
// region at of dst (all of it when nil) shaped like reg.
func (r RandDense) check(reg Region, dst *Tensor, at Region) error {
	if !reg.Valid(r.Shape) {
		return fmt.Errorf("tensor: region %v invalid for shape %v", reg, r.Shape)
	}
	if dst.dtype != r.DType {
		return fmt.Errorf("tensor: fill of %s into a %s tensor", r.DType, dst.dtype)
	}
	if at == nil {
		if !ShapeEqual(reg.Shape(), dst.shape) {
			return fmt.Errorf("tensor: region %v does not fill shape %v", reg, dst.shape)
		}
		return nil
	}
	if !at.Valid(dst.shape) || !reg.SameShape(at) {
		return fmt.Errorf("tensor: region %v does not fit %v of shape %v", reg, at, dst.shape)
	}
	return nil
}

// runs calls fn for every row-major run of reg in a tensor of r's
// shape: k is the flat index of the run's first element there, j that
// of the same run of at in a tensor of dstShape (at nil: reg's runs laid
// end to end), and n the run's length in elements. Trailing dimensions
// that reg, and at, cover whole are one run. It stops when fn returns
// false and reports whether every call returned true. The odometer
// lives on the stack, so iterating allocates nothing.
func (r RandDense) runs(reg Region, dstShape []int, at Region, fn func(k, j, n int) bool) bool {
	rank := len(reg)
	if rank == 0 {
		return fn(0, 0, 1)
	}
	if rank > maxStreamRank {
		panic(fmt.Sprintf("tensor: rank %d exceeds streaming cap %d", rank, maxStreamRank))
	}
	var strides, dstStrides, idx [maxStreamRank]int
	acc, dacc := 1, 1
	for d := rank - 1; d >= 0; d-- {
		strides[d], dstStrides[d] = acc, dacc
		acc *= r.Shape[d]
		dacc *= dstShape[d]
	}
	// The run spans dimensions inner to the end.
	inner, n := rank-1, reg[rank-1].Len()
	for inner > 0 && reg[inner].Len() == r.Shape[inner] && (at == nil || at[inner].Len() == dstShape[inner]) {
		inner--
		n *= reg[inner].Len()
	}
	seq := 0
	for {
		k, j := reg[inner].Lo*strides[inner], seq
		if at != nil {
			j = at[inner].Lo * dstStrides[inner]
		}
		for d := 0; d < inner; d++ {
			k += (reg[d].Lo + idx[d]) * strides[d]
			if at != nil {
				j += (at[d].Lo + idx[d]) * dstStrides[d]
			}
		}
		if !fn(k, j, n) {
			return false
		}
		seq += n
		d := inner - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < reg[d].Len() {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return true
		}
	}
}
