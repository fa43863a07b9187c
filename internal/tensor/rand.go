package tensor

import (
	"bytes"
	"fmt"
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
	w := newWalk(es, r.Shape, reg, dst.shape, at, 0)
	for w.next() {
		fillRand(dst.data[w.dst:w.dst+w.n], r.DType, r.start(w.src/es), r.Scale)
	}
	return nil
}

// EqualRegion reports whether t holds exactly region reg of r: t has r's
// dtype and reg's shape, and every byte is the one FillRegion would
// write there. The comparison is of bits, as Tensor.Equal's is (NaN
// payloads must match, +0 and -0 differ). It generates a piece at a time
// into a buffer on the stack and compares it with t's, in one pass over
// t, so no second tensor is filled.
func (r RandDense) EqualRegion(reg Region, t *Tensor) bool {
	if t.dtype != r.DType || !reg.Valid(r.Shape) || !reg.hasShape(t.shape) {
		return false
	}
	es := r.DType.Size()
	var want [1024]byte // a multiple of every element size
	w := newWalk(es, r.Shape, reg, nil, nil, 0)
	for w.next() {
		x := r.start(w.src / es)
		for got := t.data[w.dst : w.dst+w.n]; len(got) > 0; {
			m := min(len(got), len(want))
			fillRand(want[:m], r.DType, x, r.Scale)
			if !bytes.Equal(want[:m], got[:m]) {
				return false
			}
			got = got[m:]
			x += uint64(m/es) * splitmixGamma
		}
	}
	return true
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
		if !reg.hasShape(dst.shape) {
			return fmt.Errorf("tensor: region %v does not fill shape %v", reg, dst.shape)
		}
		return nil
	}
	if !at.Valid(dst.shape) || !reg.SameShape(at) {
		return fmt.Errorf("tensor: region %v does not fit %v of shape %v", reg, at, dst.shape)
	}
	return nil
}
