package tensor

import (
	"math/rand"
	"testing"
)

func seqTensor(dt DType, shape ...int) *Tensor {
	t := New(dt, shape...)
	t.FillSeq(0, 1)
	return t
}

func TestSliceBasic(t *testing.T) {
	x := seqTensor(Float64, 4, 5) // rows 0..3, cols 0..4, value = 5i+j
	s := x.Slice(Region{{1, 3}, {2, 4}})
	if !ShapeEqual(s.Shape(), []int{2, 2}) {
		t.Fatalf("slice shape %v", s.Shape())
	}
	want := [][]float64{{7, 8}, {12, 13}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got := s.Float64At(i, j); got != want[i][j] {
				t.Fatalf("slice[%d,%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestSliceFullIsClone(t *testing.T) {
	x := seqTensor(Float32, 3, 4, 2)
	s := x.Slice(FullRegion(x.Shape()))
	if !s.Equal(x) {
		t.Fatal("full slice differs from original")
	}
	s.SetFloat64(99, 0, 0, 0)
	if x.Float64At(0, 0, 0) == 99 {
		t.Fatal("slice aliases original")
	}
}

func TestSlicePanics(t *testing.T) {
	x := New(Float64, 2, 2)
	mustPanic(t, "oob region", func() { x.Slice(Region{{0, 3}, {0, 2}}) })
	mustPanic(t, "rank", func() { x.Slice(Region{{0, 1}}) })
}

func TestSplitPoints(t *testing.T) {
	cases := []struct {
		n, parts int
		want     []int
	}{
		{10, 2, []int{5}},
		{10, 3, []int{4, 7}},
		{7, 7, []int{1, 2, 3, 4, 5, 6}},
		{5, 1, []int{}},
	}
	for _, c := range cases {
		got := SplitPoints(c.n, c.parts)
		if len(got) != len(c.want) {
			t.Errorf("SplitPoints(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitPoints(%d,%d) = %v, want %v", c.n, c.parts, got, c.want)
				break
			}
		}
	}
	mustPanic(t, "too many parts", func() { SplitPoints(3, 4) })
	mustPanic(t, "zero parts", func() { SplitPoints(3, 0) })
}

func TestSplitRangesCoverAndBalance(t *testing.T) {
	for n := 1; n <= 30; n++ {
		for parts := 1; parts <= n; parts++ {
			rs := SplitRanges(n, parts)
			if len(rs) != parts {
				t.Fatalf("SplitRanges(%d,%d): %d ranges", n, parts, len(rs))
			}
			total, prevHi := 0, 0
			minL, maxL := n+1, 0
			for _, r := range rs {
				if r.Lo != prevHi {
					t.Fatalf("SplitRanges(%d,%d): gap before %v", n, parts, r)
				}
				prevHi = r.Hi
				total += r.Len()
				if r.Len() < minL {
					minL = r.Len()
				}
				if r.Len() > maxL {
					maxL = r.Len()
				}
			}
			if total != n || prevHi != n {
				t.Fatalf("SplitRanges(%d,%d): total=%d end=%d", n, parts, total, prevHi)
			}
			if maxL-minL > 1 {
				t.Fatalf("SplitRanges(%d,%d): unbalanced %d..%d", n, parts, minL, maxL)
			}
		}
	}
}

// TestSliceOfSliceComposition verifies that slicing a slice equals slicing
// the original with composed (translated) regions — the property the state
// transformer relies on when it requests a sub-range of a sub-tensor that
// lives on a remote device.
func TestSliceOfSliceComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		shape := []int{2 + rng.Intn(6), 2 + rng.Intn(6), 2 + rng.Intn(4)}
		x := New(Float64, shape...)
		x.FillRand(int64(trial), 5)

		outer := randomRegion(rng, shape)
		inner := randomRegion(rng, outer.Shape())

		a := x.Slice(outer).Slice(inner)

		composed := make(Region, len(shape))
		for d := range shape {
			composed[d] = Range{outer[d].Lo + inner[d].Lo, outer[d].Lo + inner[d].Hi}
		}
		b := x.Slice(composed)
		if !a.Equal(b) {
			t.Fatalf("composition failed: outer=%v inner=%v", outer, inner)
		}
	}
}

func randomRegion(rng *rand.Rand, shape []int) Region {
	reg := make(Region, len(shape))
	for d, n := range shape {
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		reg[d] = Range{lo, hi}
	}
	return reg
}
