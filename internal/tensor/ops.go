package tensor

import "fmt"

// Slice copies the sub-tensor covered by reg out of t. The result's shape
// is reg.Shape(). It is the building block of both the Tensor Store's
// range queries and the planner's split operation.
func (t *Tensor) Slice(reg Region) *Tensor {
	if !reg.Valid(t.shape) {
		panic(fmt.Sprintf("tensor: Slice region %v invalid for shape %v", reg, t.shape))
	}
	out := New(t.dtype, reg.Shape()...)
	if _, err := CopyRegion(out, FullRegion(out.shape), t, reg); err != nil {
		panic(err)
	}
	return out
}

// SetSlice writes src into the sub-region reg of t. src's shape must
// equal reg.Shape() and dtypes must match. It is the building block of
// the planner's merge operation.
func (t *Tensor) SetSlice(reg Region, src *Tensor) {
	if !reg.Valid(t.shape) {
		panic(fmt.Sprintf("tensor: SetSlice region %v invalid for shape %v", reg, t.shape))
	}
	if t.dtype != src.dtype {
		panic(fmt.Sprintf("tensor: SetSlice dtype mismatch %s vs %s", t.dtype, src.dtype))
	}
	if !ShapeEqual(reg.Shape(), src.shape) {
		panic(fmt.Sprintf("tensor: SetSlice region shape %v != src shape %v", reg.Shape(), src.shape))
	}
	if _, err := CopyRegion(t, reg, src, FullRegion(src.shape)); err != nil {
		panic(err)
	}
}

// SplitPoints returns the cut offsets that divide length n into parts
// nearly equal pieces (the first n%parts pieces are one longer), as a
// sorted slice of interior boundaries. parts must be in [1, n].
func SplitPoints(n, parts int) []int {
	if parts < 1 || parts > n {
		panic(fmt.Sprintf("tensor: cannot split length %d into %d parts", n, parts))
	}
	pts := make([]int, 0, parts-1)
	base, rem := n/parts, n%parts
	off := 0
	for i := 0; i < parts-1; i++ {
		off += base
		if i < rem {
			off++
		}
		pts = append(pts, off)
	}
	return pts
}

// SplitRanges divides [0,n) into parts near-equal ranges.
func SplitRanges(n, parts int) []Range {
	pts := SplitPoints(n, parts)
	out := make([]Range, 0, parts)
	lo := 0
	for _, p := range pts {
		out = append(out, Range{lo, p})
		lo = p
	}
	out = append(out, Range{lo, n})
	return out
}

// Split divides t into parts near-equal sub-tensors along dim and returns
// them in order. Each part is an independent copy.
func (t *Tensor) Split(dim, parts int) []*Tensor {
	if dim < 0 || dim >= len(t.shape) {
		panic(fmt.Sprintf("tensor: Split dim %d out of range for shape %v", dim, t.shape))
	}
	ranges := SplitRanges(t.shape[dim], parts)
	out := make([]*Tensor, len(ranges))
	for i, r := range ranges {
		reg := FullRegion(t.shape)
		reg[dim] = r
		out[i] = t.Slice(reg)
	}
	return out
}

// Concat joins tensors along dim. All inputs must share dtype and agree
// on every dimension except dim. It is the inverse of Split.
func Concat(dim int, parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: Concat of zero tensors")
	}
	first := parts[0]
	if dim < 0 || dim >= len(first.shape) {
		panic(fmt.Sprintf("tensor: Concat dim %d out of range for shape %v", dim, first.shape))
	}
	outShape := first.Shape()
	total := 0
	for _, p := range parts {
		if p.dtype != first.dtype {
			panic("tensor: Concat dtype mismatch")
		}
		if len(p.shape) != len(first.shape) {
			panic("tensor: Concat rank mismatch")
		}
		for d := range p.shape {
			if d != dim && p.shape[d] != first.shape[d] {
				panic(fmt.Sprintf("tensor: Concat shape mismatch at dim %d: %v vs %v", d, p.shape, first.shape))
			}
		}
		total += p.shape[dim]
	}
	outShape[dim] = total
	out := New(first.dtype, outShape...)
	off := 0
	for _, p := range parts {
		reg := FullRegion(outShape)
		reg[dim] = Range{off, off + p.shape[dim]}
		out.SetSlice(reg, p)
		off += p.shape[dim]
	}
	return out
}

// Assemble reconstructs a tensor of the given shape from pieces, each a
// (region, sub-tensor) pair in base coordinates. The regions must tile
// the full tensor exactly (no gap, overlaps allowed but must agree). It
// is used by the state transformer's merge step when a destination
// sub-tensor is rebuilt from fragments fetched from several devices.
func Assemble(dt DType, shape []int, pieces []Piece) (*Tensor, error) {
	out := New(dt, shape...)
	covered := 0
	for _, p := range pieces {
		if !p.Region.Valid(shape) {
			return nil, fmt.Errorf("tensor: Assemble piece region %v invalid for %v", p.Region, shape)
		}
		if !ShapeEqual(p.Region.Shape(), p.Data.shape) {
			return nil, fmt.Errorf("tensor: Assemble piece shape %v != region %v", p.Data.shape, p.Region)
		}
		if p.Data.dtype != dt {
			return nil, fmt.Errorf("tensor: Assemble piece dtype %s != %s", p.Data.dtype, dt)
		}
		out.SetSlice(p.Region, p.Data)
		covered += p.Region.NumElems()
	}
	if covered < ShapeNumElems(shape) {
		return nil, fmt.Errorf("tensor: Assemble covered %d of %d elements", covered, ShapeNumElems(shape))
	}
	return out, nil
}

// Piece pairs a region of a base tensor with the data that fills it.
type Piece struct {
	Region Region
	Data   *Tensor
}
