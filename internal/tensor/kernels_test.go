package tensor

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// equalByteLoop is Tensor.Equal as it was before it compared the backing
// buffers with bytes.Equal: the reference TestEqualMatchesByteLoop holds
// the kernel against, and the only place the loop survives.
func equalByteLoop(t, u *Tensor) bool {
	if t.dtype != u.dtype || len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	if len(t.data) != len(u.data) {
		return false
	}
	for i := range t.data {
		if t.data[i] != u.data[i] {
			return false
		}
	}
	return true
}

var allDTypes = []DType{Float32, Float64, Float16, Int64, Int32, Uint8}

func TestEqualMatchesByteLoop(t *testing.T) {
	check := func(what string, a, b *Tensor, want bool) {
		t.Helper()
		if got, ref := a.Equal(b), equalByteLoop(a, b); got != ref || got != want {
			t.Fatalf("%s: Equal = %v, byte loop = %v, want %v", what, got, ref, want)
		}
		if got, ref := b.Equal(a), equalByteLoop(b, a); got != ref || got != want {
			t.Fatalf("%s (swapped): Equal = %v, byte loop = %v, want %v", what, got, ref, want)
		}
	}
	// flips checks that a differs from its clone exactly while one byte
	// at each of the given positions is changed.
	flips := func(what string, a *Tensor, positions []int) {
		t.Helper()
		b := a.Clone()
		check(what, a, b, true)
		for _, p := range positions {
			b.data[p] ^= 0x80
			check(what, a, b, false)
			b.data[p] ^= 0x80
		}
		check(what, a, b, true)
	}

	// Every dtype: rank 0, rank 1, rank 3, and the tensor against itself.
	for _, dt := range allDTypes {
		for _, shape := range [][]int{nil, {7}, {3, 2, 5}} {
			a := New(dt, shape...)
			a.FillRandDense(3, 100)
			check(dt.String()+" self", a, a, true)
			flips(dt.String(), a, []int{0, len(a.data) / 2, len(a.data) - 1})
		}
	}

	// Every buffer length from 0 to 130 bytes, every position in it. No
	// constructor builds an empty tensor; a decoder bug could, and Equal
	// must not care.
	empty := &Tensor{dtype: Uint8, shape: []int{0}}
	check("empty", empty, &Tensor{dtype: Uint8, shape: []int{0}}, true)
	check("empty self", empty, empty, true)
	check("empty vs one byte", empty, New(Uint8, 1), false)
	for n := 1; n <= 130; n++ {
		a := New(Uint8, n)
		a.FillRandDense(int64(n), 128)
		positions := make([]int, n)
		for p := range positions {
			positions[p] = p
		}
		flips("uint8 vector", a, positions)
		check("length n vs n+1", a, New(Uint8, n+1), false)
	}

	// Several MiB, not a multiple of any vector width: the first byte,
	// the last, and one byte at every offset mod 64 mid-buffer.
	bigLen := 3<<20 + 17
	if raceEnabled {
		bigLen = 64<<10 + 17 // the reference loop runs at ~25 MB/s instrumented
	}
	big := New(Uint8, bigLen)
	big.FillRandDense(9, 128)
	positions := []int{0, len(big.data) - 1}
	for r := 0; r < 64; r++ {
		positions = append(positions, (len(big.data)/2)&^63+r)
	}
	flips("3 MiB", big, positions)

	// Bits, not values: a NaN equals itself and no NaN of another
	// payload; the two zeros differ.
	f32 := func(bits uint32) *Tensor {
		x := New(Float32, 1)
		binary.LittleEndian.PutUint32(x.data, bits)
		return x
	}
	f64 := func(bits uint64) *Tensor {
		x := New(Float64, 1)
		binary.LittleEndian.PutUint64(x.data, bits)
		return x
	}
	check("float32 NaN, same payload", f32(0x7fc00001), f32(0x7fc00001), true)
	check("float32 NaN, other payload", f32(0x7fc00001), f32(0x7fc00002), false)
	check("float32 quiet vs signalling NaN", f32(0x7fc00000), f32(0x7fa00000), false)
	check("float32 +0 vs -0", f32(0), f32(math.Float32bits(float32(math.Copysign(0, -1)))), false)
	check("float64 NaN, same payload", f64(math.Float64bits(math.NaN())), f64(math.Float64bits(math.NaN())), true)
	check("float64 NaN, other payload", f64(0x7ff8000000000001), f64(0x7ff8000000000002), false)
	check("float64 +0 vs -0", f64(0), f64(math.Float64bits(math.Copysign(0, -1))), false)

	// The same bytes under another dtype or another shape are another
	// tensor.
	check("float32 vs int32, same shape and bytes", New(Float32, 4), New(Int32, 4), false)
	check("float64 vs int64, same shape and bytes", New(Float64, 2, 2), New(Int64, 2, 2), false)
	check("[2 3] vs [3 2]", New(Float32, 2, 3), New(Float32, 3, 2), false)
	check("[6] vs [2 3]", New(Float32, 6), New(Float32, 2, 3), false)
	check("scalar vs [1]", New(Float32), New(Float32, 1), false)
}

// kernelGate is how far above an in-process copy of the same bytes a
// gated kernel may run. Both timings come from one process within
// milliseconds of each other, so the shared host's memory-speed drift
// cancels; a byte-at-a-time loop reads 7-8x, the kernels that are a
// copy or a compare 0.7-1.2x.
const kernelGate = 3.0

// TestKernelsNearCopySpeed is the floor table as a test: min-of-7
// timings of every kernel of the datapath over kernelBytes, each as a
// ratio of builtin copy. The memory-bound kernels (gated) fail above
// kernelGate; the strided and compute-bound ones are logged, so a
// reader of CI output sees the whole table.
func TestKernelsNearCopySpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratios: skipped under -short")
	}
	if raceEnabled {
		t.Skip("timing ratios: the race detector instruments Go loops but not copy")
	}
	ks := kernels()
	if ks[0].name != "copy" {
		t.Fatal("the floor table must start with copy")
	}
	best := make([]time.Duration, len(ks))
	for i, k := range ks {
		op := k.setup()
		op() // first touch of every page, outside the clock
		best[i] = time.Duration(math.MaxInt64)
		for round := 0; round < 7; round++ {
			start := time.Now()
			op()
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}
	floor := best[0]
	for i, k := range ks {
		ratio := float64(best[i]) / float64(floor)
		gbps := kernelBytes / best[i].Seconds() / 1e9
		t.Logf("%-24s %6.2f GB/s  %5.2fx copy", k.name, gbps, ratio)
		if k.gated && ratio > kernelGate {
			t.Errorf("%s takes %.2fx an in-process copy of the same %d bytes (gate %.1fx): %v vs %v",
				k.name, ratio, kernelBytes, kernelGate, best[i], floor)
		}
	}
}
