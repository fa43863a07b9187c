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
