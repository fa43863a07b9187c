package tensor

import (
	"fmt"
	"strconv"
	"strings"
)

// Range is a half-open interval [Lo, Hi) along one tensor dimension.
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices covered by the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Valid reports whether the range is well-formed and non-empty.
func (r Range) Valid() bool { return r.Lo >= 0 && r.Hi > r.Lo }

// Intersect returns the overlap of two ranges and whether it is
// non-empty.
func (r Range) Intersect(o Range) (Range, bool) {
	lo := r.Lo
	if o.Lo > lo {
		lo = o.Lo
	}
	hi := r.Hi
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo >= hi {
		return Range{}, false
	}
	return Range{lo, hi}, true
}

// Contains reports whether o lies fully within r.
func (r Range) Contains(o Range) bool { return o.Lo >= r.Lo && o.Hi <= r.Hi }

func (r Range) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// Region selects a hyper-rectangular sub-tensor: one Range per dimension.
// It is the package-level representation of the Tensor Store's
// "range=[:,2:4]" query attribute and of the sub-tensor extents tracked
// by the PTC.
type Region []Range

// FullRegion returns the region covering an entire tensor of the given
// shape.
func FullRegion(shape []int) Region {
	reg := make(Region, len(shape))
	for i, d := range shape {
		reg[i] = Range{0, d}
	}
	return reg
}

// Shape returns the per-dimension lengths of the region.
func (g Region) Shape() []int {
	s := make([]int, len(g))
	for i, r := range g {
		s[i] = r.Len()
	}
	return s
}

// hasShape reports whether the region's shape is shape, without building
// it.
func (g Region) hasShape(shape []int) bool {
	if len(g) != len(shape) {
		return false
	}
	for i, r := range g {
		if r.Len() != shape[i] {
			return false
		}
	}
	return true
}

// NumElems returns the number of elements the region covers.
func (g Region) NumElems() int {
	n := 1
	for _, r := range g {
		n *= r.Len()
	}
	return n
}

// NumBytes returns the byte size of the region for elements of dtype dt.
func (g Region) NumBytes(dt DType) int64 {
	return int64(g.NumElems()) * int64(dt.Size())
}

// Valid reports whether the region has shape's rank and every range is
// well-formed and within shape's bounds. A nil shape is a scalar's, whose
// one region is the empty one.
func (g Region) Valid(shape []int) bool {
	if len(g) != len(shape) {
		return false
	}
	for i, r := range g {
		if !r.Valid() || r.Hi > shape[i] {
			return false
		}
	}
	return true
}

// Intersect returns the element-wise overlap of two equal-rank regions
// and whether it is non-empty in every dimension.
func (g Region) Intersect(o Region) (Region, bool) {
	if len(g) != len(o) {
		return nil, false
	}
	out := make(Region, len(g))
	for i := range g {
		r, ok := g[i].Intersect(o[i])
		if !ok {
			return nil, false
		}
		out[i] = r
	}
	return out, true
}

// Overlaps reports whether two equal-rank regions share an element: what
// Intersect's second result says, without allocating the intersection.
func (g Region) Overlaps(o Region) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if g[i].Lo >= o[i].Hi || o[i].Lo >= g[i].Hi {
			return false
		}
	}
	return true
}

// Contains reports whether o lies fully within g.
func (g Region) Contains(o Region) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if !g[i].Contains(o[i]) {
			return false
		}
	}
	return true
}

// Translate shifts the region by -origin[i] in every dimension, i.e. it
// re-expresses g (given in base-tensor coordinates) in the local
// coordinates of a sub-tensor whose first element sits at origin.
func (g Region) Translate(origin []int) Region {
	out := make(Region, len(g))
	for i, r := range g {
		out[i] = Range{r.Lo - origin[i], r.Hi - origin[i]}
	}
	return out
}

// Offset returns the per-dimension start coordinates.
func (g Region) Offset() []int {
	o := make([]int, len(g))
	for i, r := range g {
		o[i] = r.Lo
	}
	return o
}

// Equal reports whether two regions are identical.
func (g Region) Equal(o Region) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if g[i] != o[i] {
			return false
		}
	}
	return true
}

// SameShape reports whether the two regions have the same length in
// every dimension; unlike comparing their Shape()s it allocates nothing.
func (g Region) SameShape(o Region) bool {
	if len(g) != len(o) {
		return false
	}
	for i := range g {
		if g[i].Len() != o[i].Len() {
			return false
		}
	}
	return true
}

// Clone returns a copy of the region.
func (g Region) Clone() Region { return append(Region(nil), g...) }

// String renders the region in the REST query syntax, e.g. "[0:2,4:8]".
func (g Region) String() string { return string(g.Append(nil)) }

// Append appends the region's String to b.
func (g Region) Append(b []byte) []byte {
	b = append(b, '[')
	for i, r := range g {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r.Lo), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(r.Hi), 10)
	}
	return append(b, ']')
}

// ParseRegion parses the REST query syntax for sub-tensor ranges. The
// grammar per dimension is "lo:hi", "lo:", ":hi", or ":"; open ends are
// resolved against shape. The full input is bracketed and comma
// separated, e.g. "[:,2:4]". A nil shape only permits fully closed
// ranges.
func ParseRegion(s string, shape []int) (Region, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return nil, fmt.Errorf("tensor: region %q must be bracketed", s)
	}
	body := s[1 : len(s)-1]
	if strings.TrimSpace(body) == "" {
		return Region{}, nil
	}
	parts := strings.Split(body, ",")
	if shape != nil && len(parts) != len(shape) {
		return nil, fmt.Errorf("tensor: region %q has %d dims, want %d", s, len(parts), len(shape))
	}
	reg := make(Region, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		colon := strings.IndexByte(p, ':')
		if colon < 0 {
			// single index "k" selects [k, k+1)
			k, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("tensor: bad range %q in %q", p, s)
			}
			reg[i] = Range{k, k + 1}
			continue
		}
		loStr, hiStr := strings.TrimSpace(p[:colon]), strings.TrimSpace(p[colon+1:])
		lo := 0
		if loStr != "" {
			v, err := strconv.Atoi(loStr)
			if err != nil {
				return nil, fmt.Errorf("tensor: bad lower bound %q in %q", loStr, s)
			}
			lo = v
		}
		var hi int
		switch {
		case hiStr != "":
			v, err := strconv.Atoi(hiStr)
			if err != nil {
				return nil, fmt.Errorf("tensor: bad upper bound %q in %q", hiStr, s)
			}
			hi = v
		case shape != nil:
			hi = shape[i]
		default:
			return nil, fmt.Errorf("tensor: open range %q needs a shape", p)
		}
		reg[i] = Range{lo, hi}
	}
	if shape != nil && !reg.Valid(shape) {
		return nil, fmt.Errorf("tensor: region %v out of bounds for shape %v", reg, shape)
	}
	return reg, nil
}
