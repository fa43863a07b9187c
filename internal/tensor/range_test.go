package tensor

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := Range{2, 5}
	if r.Len() != 3 || !r.Valid() {
		t.Fatalf("Range{2,5}: len=%d valid=%v", r.Len(), r.Valid())
	}
	if (Range{3, 3}).Valid() || (Range{-1, 2}).Valid() {
		t.Fatal("degenerate ranges reported valid")
	}
	if !r.Contains(Range{3, 5}) || r.Contains(Range{3, 6}) {
		t.Fatal("Contains wrong")
	}
}

func TestRangeIntersect(t *testing.T) {
	cases := []struct {
		a, b  Range
		want  Range
		wantO bool
	}{
		{Range{0, 4}, Range{2, 6}, Range{2, 4}, true},
		{Range{0, 4}, Range{4, 8}, Range{}, false},
		{Range{2, 3}, Range{0, 10}, Range{2, 3}, true},
		{Range{5, 9}, Range{0, 5}, Range{}, false},
	}
	for _, c := range cases {
		got, ok := c.a.Intersect(c.b)
		if ok != c.wantO || (ok && got != c.want) {
			t.Errorf("%v ∩ %v = %v,%v; want %v,%v", c.a, c.b, got, ok, c.want, c.wantO)
		}
	}
}

func TestRegionBasics(t *testing.T) {
	shape := []int{4, 6}
	full := FullRegion(shape)
	if !full.Equal(Region{{0, 4}, {0, 6}}) {
		t.Fatalf("FullRegion = %v", full)
	}
	if full.NumElems() != 24 {
		t.Fatalf("NumElems = %d", full.NumElems())
	}
	if full.NumBytes(Float64) != 192 {
		t.Fatalf("NumBytes = %d", full.NumBytes(Float64))
	}
	sub := Region{{1, 3}, {2, 5}}
	if !full.Contains(sub) || sub.Contains(full) {
		t.Fatal("Contains wrong")
	}
	if !ShapeEqual(sub.Shape(), []int{2, 3}) {
		t.Fatalf("sub shape %v", sub.Shape())
	}
	tr := sub.Translate([]int{1, 2})
	if !tr.Equal(Region{{0, 2}, {0, 3}}) {
		t.Fatalf("Translate = %v", tr)
	}
	if got := sub.Offset(); got[0] != 1 || got[1] != 2 {
		t.Fatalf("Offset = %v", got)
	}
	cl := sub.Clone()
	cl[0] = Range{0, 1}
	if sub[0].Lo != 1 {
		t.Fatal("Clone aliases")
	}
}

// TestScalarRegionRank: a rank-0 tensor's one region is the empty one.
// A region of another rank is out of bounds, and WriteRegion and View
// refuse it instead of walking past the scalar's shape.
func TestScalarRegionRank(t *testing.T) {
	s := New(Float32)
	bad := Region{{0, 1}}
	if s.InBounds(bad) || !s.InBounds(nil) || !s.InBounds(Region{}) {
		t.Fatalf("scalar InBounds: %v for %v, %v for nil, %v for {}, want false, true, true",
			s.InBounds(bad), bad, s.InBounds(nil), s.InBounds(Region{}))
	}
	if New(Float32, 4, 4).InBounds(Region{{0, 1}}) {
		t.Fatal("a rank-1 region is in bounds of a rank-2 tensor")
	}
	if _, err := s.WriteRegion(bad, bytes.NewReader(make([]byte, 4))); err == nil {
		t.Fatal("WriteRegion took a rank-1 region into a scalar")
	}
	if n, err := s.WriteRegion(nil, bytes.NewReader([]byte{1, 2, 3, 4})); err != nil || n != 4 {
		t.Fatalf("WriteRegion of the scalar's region: %d bytes, %v", n, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("View of a rank-1 region over a scalar did not panic")
		}
	}()
	s.View(bad)
}

func TestRegionIntersect(t *testing.T) {
	a := Region{{0, 4}, {0, 4}}
	b := Region{{2, 6}, {1, 3}}
	got, ok := a.Intersect(b)
	if !ok || !got.Equal(Region{{2, 4}, {1, 3}}) {
		t.Fatalf("intersect = %v, %v", got, ok)
	}
	c := Region{{4, 8}, {0, 4}}
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint regions intersected")
	}
	if _, ok := a.Intersect(Region{{0, 1}}); ok {
		t.Fatal("rank mismatch intersected")
	}
}

func TestParseRegion(t *testing.T) {
	shape := []int{8, 10}
	cases := []struct {
		in   string
		want Region
	}{
		{"[:,2:4]", Region{{0, 8}, {2, 4}}},
		{"[0:8,0:10]", Region{{0, 8}, {0, 10}}},
		{"[3:,:5]", Region{{3, 8}, {0, 5}}},
		{"[:,:]", Region{{0, 8}, {0, 10}}},
		{"[ 1:2 , 3:4 ]", Region{{1, 2}, {3, 4}}},
		{"[7,9]", Region{{7, 8}, {9, 10}}},
	}
	for _, c := range cases {
		got, err := ParseRegion(c.in, shape)
		if err != nil {
			t.Errorf("ParseRegion(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("ParseRegion(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	bad := []string{"", "[", "1:2", "[1:2]", "[a:b,1:2]", "[1:2,3:4,5:6]", "[0:9,0:10]", "[:,0:99]"}
	for _, in := range bad {
		if _, err := ParseRegion(in, shape); err == nil {
			t.Errorf("ParseRegion(%q) succeeded, want error", in)
		}
	}
	// Open bounds need a shape.
	if _, err := ParseRegion("[:]", nil); err == nil {
		t.Error("open range without shape accepted")
	}
	if got, err := ParseRegion("[1:2]", nil); err != nil || !got.Equal(Region{{1, 2}}) {
		t.Errorf("closed range without shape: %v, %v", got, err)
	}
}

func TestRegionStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		rank := 1 + rng.Intn(4)
		shape := make([]int, rank)
		reg := make(Region, rank)
		for d := 0; d < rank; d++ {
			shape[d] = 1 + rng.Intn(12)
			lo := rng.Intn(shape[d])
			hi := lo + 1 + rng.Intn(shape[d]-lo)
			reg[d] = Range{lo, hi}
		}
		back, err := ParseRegion(reg.String(), shape)
		if err != nil || !back.Equal(reg) {
			t.Fatalf("roundtrip %v: got %v, err %v", reg, back, err)
		}
	}
}

func TestRangeIntersectQuick(t *testing.T) {
	// Intersection is commutative and contained in both operands.
	f := func(a0, a1, b0, b1 uint8) bool {
		a := Range{int(a0 % 32), int(a0%32) + 1 + int(a1%32)}
		b := Range{int(b0 % 32), int(b0%32) + 1 + int(b1%32)}
		x, okx := a.Intersect(b)
		y, oky := b.Intersect(a)
		if okx != oky {
			return false
		}
		if !okx {
			// Disjoint: ensure they truly don't overlap.
			return a.Hi <= b.Lo || b.Hi <= a.Lo
		}
		return x == y && a.Contains(x) && b.Contains(x) && x.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
