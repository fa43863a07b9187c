package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// randShapeRegion draws a shape of the given rank and a region inside it.
func randShapeRegion(rng *rand.Rand, rank int) ([]int, Region) {
	shape := make([]int, rank)
	reg := make(Region, rank)
	for d := range shape {
		shape[d] = 1 + rng.Intn(9)
		lo := rng.Intn(shape[d])
		reg[d] = Range{Lo: lo, Hi: lo + 1 + rng.Intn(shape[d]-lo)}
	}
	return shape, reg
}

// TestRandDenseRegionMatchesFill: a region of the virtual tensor is
// FillRandDense of the whole tensor sliced to it, byte for byte, for
// every dtype over the walker's table and at random ranks 0 to 3,
// written into a buffer of its own and into a region of a larger one,
// and EqualRegion accepts exactly that.
func TestRandDenseRegionMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(dt DType, shape []int, reg Region, scale float64) {
		t.Helper()
		r := RandDense{DType: dt, Shape: shape, Seed: rng.Int63() - 1<<62, Scale: scale}
		full := New(dt, shape...)
		full.FillRandDense(r.Seed, r.Scale)
		want := NewFromRegion(dt, reg)
		copy(want.data, regionBytes(full, reg))

		got := NewFromRegion(dt, reg)
		if err := r.FillRegion(reg, got, nil); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%v shape %v region %v: FillRegion differs from FillRandDense sliced", dt, shape, reg)
		}
		if !r.EqualRegion(reg, want) {
			t.Fatalf("%v shape %v region %v: EqualRegion refuses FillRandDense sliced", dt, shape, reg)
		}

		// The same region written at an offset of a larger tensor, and
		// nowhere else.
		big, at := padded(rng, reg)
		dst := New(dt, big...)
		if err := r.FillRegion(reg, dst, at); err != nil {
			t.Fatal(err)
		}
		back := New(dt, big...)
		es := dt.Size()
		for i, off := range elemOffsets(big, at, es) {
			copy(back.data[off:off+es], want.data[i*es:])
		}
		if !dst.Equal(back) {
			t.Fatalf("%v shape %v region %v at %v: FillRegion into a region differs", dt, shape, reg, at)
		}
	}
	scales := []float64{0.05, 1, 300}
	for _, dt := range allDTypes {
		for i, c := range walkCases {
			check(dt, c.shape, c.reg, scales[i%3])
		}
		for rank := 0; rank <= 3; rank++ {
			for trial := 0; trial < 40; trial++ {
				shape, reg := randShapeRegion(rng, rank)
				check(dt, shape, reg, scales[trial%3])
			}
		}
	}
}

// TestRandDenseRegionRefusesMisfits: a region outside the shape, a
// destination of another dtype or shape, and a tensor of another shape
// are refused rather than written or matched.
func TestRandDenseRegionRefusesMisfits(t *testing.T) {
	r := RandDense{DType: Float32, Shape: []int{4, 6}, Seed: 3, Scale: 1}
	reg := Region{{1, 3}, {0, 6}}
	for name, err := range map[string]error{
		"region past the shape": r.FillRegion(Region{{0, 5}, {0, 6}}, New(Float32, 5, 6), nil),
		"other dtype":           r.FillRegion(reg, New(Float64, 2, 6), nil),
		"other shape":           r.FillRegion(reg, New(Float32, 3, 6), nil),
		"at of other shape":     r.FillRegion(reg, New(Float32, 4, 6), Region{{0, 2}, {0, 5}}),
		"at past the shape":     r.FillRegion(reg, New(Float32, 4, 6), Region{{3, 5}, {0, 6}}),
	} {
		if err == nil {
			t.Errorf("%s: FillRegion succeeded", name)
		}
	}
	good := NewFromRegion(Float32, reg)
	if err := r.FillRegion(reg, good, nil); err != nil {
		t.Fatal(err)
	}
	if r.EqualRegion(reg, &Tensor{dtype: good.dtype, shape: []int{12}, data: good.data}) || r.EqualRegion(Region{{1, 3}}, good) || (RandDense{Float64, r.Shape, 3, 1}).EqualRegion(reg, good) {
		t.Fatal("EqualRegion matched a tensor of another shape, rank or dtype")
	}
}

// TestRandDenseEqualFindsFlips holds the fused compare to a byte
// compare: one flipped bit at every byte of a strided region and of one
// a run longer than the compare's buffer is found, and the compare is
// of bits — a NaN with another payload, or a zero of the other sign, is
// a difference.
func TestRandDenseEqualFindsFlips(t *testing.T) {
	for _, dt := range allDTypes {
		r := RandDense{DType: dt, Shape: []int{5, 301}, Seed: 9, Scale: 100}
		for _, reg := range []Region{{{1, 4}, {3, 40}}, {{1, 4}, {0, 301}}} {
			got := NewFromRegion(dt, reg)
			if err := r.FillRegion(reg, got, nil); err != nil {
				t.Fatal(err)
			}
			for p := range got.data {
				for _, bit := range []byte{0x01, 0x80} {
					got.data[p] ^= bit
					if r.EqualRegion(reg, got) {
						t.Fatalf("%v region %v: bit %#x of byte %d flipped, EqualRegion still matches", dt, reg, bit, p)
					}
					got.data[p] ^= bit
				}
			}
			if !r.EqualRegion(reg, got) {
				t.Fatalf("%v region %v: EqualRegion refuses the restored region", dt, reg)
			}
		}
	}

	// Scale 0 draws +0 and -0 by the unit's sign; a sign flip of a zero
	// is a difference. Scale NaN draws NaNs; another payload is too.
	zero := RandDense{DType: Float32, Shape: []int{64}, Seed: 1, Scale: 0}
	z := New(Float32, 64)
	if err := zero.FillRegion(FullRegion(z.shape), z, nil); err != nil {
		t.Fatal(err)
	}
	signs := 0
	for i := 0; i < 64; i++ {
		bits := binary.LittleEndian.Uint32(z.data[4*i:])
		if bits&^(1<<31) != 0 {
			t.Fatalf("scale 0 drew %#x", bits)
		}
		binary.LittleEndian.PutUint32(z.data[4*i:], bits^1<<31)
		if zero.EqualRegion(FullRegion(z.shape), z) {
			t.Fatalf("zero %d with its sign flipped still matches", i)
		}
		binary.LittleEndian.PutUint32(z.data[4*i:], bits)
		signs += int(bits >> 31)
	}
	if signs == 0 || signs == 64 {
		t.Fatalf("%d of 64 zeros negative: the test needs both signs", signs)
	}
	nan := RandDense{DType: Float64, Shape: []int{8}, Seed: 2, Scale: math.NaN()}
	u := New(Float64, 8)
	if err := nan.FillRegion(FullRegion(u.shape), u, nil); err != nil {
		t.Fatal(err)
	}
	if !nan.EqualRegion(FullRegion(u.shape), u) {
		t.Fatal("a NaN fill does not match itself")
	}
	bits := binary.LittleEndian.Uint64(u.data[24:])
	binary.LittleEndian.PutUint64(u.data[24:], bits^2)
	if !math.IsNaN(math.Float64frombits(bits^2)) || nan.EqualRegion(FullRegion(u.shape), u) {
		t.Fatal("a NaN of another payload matches")
	}
}

// A slab hands out disjoint tensors of a round, reuses its memory in the
// next, and past a round's size hands out fresh tensors without touching
// what it has cut.
func TestSlabRounds(t *testing.T) {
	var s Slab
	s.Reset(3 * 4 * 4)
	a, b := s.New(Float32, Region{{0, 2}, {0, 4}}), s.New(Float32, Region{{0, 1}, {0, 4}})
	if !a.HasShape([]int{2, 4}) || !b.HasShape([]int{1, 4}) || a.dtype != Float32 {
		t.Fatalf("cut %v and %v", a.shape, b.shape)
	}
	a.FillSeq(1, 0)
	b.FillSeq(2, 0)
	if a.Float64At(1, 3) != 1 || b.Float64At(0, 0) != 2 {
		t.Fatal("tensors cut from one slab overlap")
	}
	c := s.New(Float32, Region{{0, 1}, {0, 1}})
	if c.Float64At(0, 0) != 0 || a.Float64At(1, 3) != 1 || b.Float64At(0, 3) != 2 {
		t.Fatal("a tensor past the round's size was cut from the slab")
	}
	s.Reset(3 * 4 * 4)
	d := s.New(Float32, Region{{0, 3}, {0, 4}})
	if &d.data[0] != &a.data[0] {
		t.Fatal("the next round does not reuse the slab's memory")
	}
	s.Reset(4 * 4 * 4)
	if e := s.New(Float32, Region{{0, 4}, {0, 4}}); &e.data[0] == &a.data[0] || len(e.data) != 64 {
		t.Fatal("a larger round reused a slab too small for it")
	}
}
