package sched

import (
	"math"
	"reflect"
	"testing"
)

func TestArrivalsShape(t *testing.T) {
	p := DefaultArrivalParams()
	p.Jobs = 400
	arr, err := Arrivals(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != p.Jobs {
		t.Fatalf("%d arrivals, want %d", len(arr), p.Jobs)
	}
	sizes := map[int]bool{}
	for _, s := range p.Sizes {
		sizes[s] = true
	}
	prev := -1.0
	var gapSum, durSum float64
	for i, a := range arr {
		if a.ArrivalMin < prev {
			t.Fatalf("arrival %d out of order (%.1f after %.1f)", i, a.ArrivalMin, prev)
		}
		if i > 0 {
			gapSum += a.ArrivalMin - prev
		}
		prev = a.ArrivalMin
		if !sizes[a.GPUs] {
			t.Fatalf("job %s size %d outside %v", a.Name, a.GPUs, p.Sizes)
		}
		if a.DurationMin < p.MinDurationMin {
			t.Fatalf("job %s duration %.1f below floor %.1f", a.Name, a.DurationMin, p.MinDurationMin)
		}
		durSum += a.DurationMin
		if a.MinGPUs < 1 || a.MinGPUs > a.GPUs || a.MaxGPUs < a.GPUs {
			t.Fatalf("job %s bounds [%d, %d] around %d", a.Name, a.MinGPUs, a.MaxGPUs, a.GPUs)
		}
		if (a.MinGPUs != a.GPUs || a.MaxGPUs != a.GPUs) && (a.MinGPUs != max(1, a.GPUs/2) || a.MaxGPUs != 2*a.GPUs) {
			t.Fatalf("job %s elastic bounds [%d, %d] for size %d", a.Name, a.MinGPUs, a.MaxGPUs, a.GPUs)
		}
	}
	// Mean inter-arrival and duration track the parameters (exponential
	// draws, so allow a generous band at n = 400).
	if mean := gapSum / float64(p.Jobs-1); math.Abs(mean-p.MeanInterArrivalMin) > 8 {
		t.Fatalf("mean inter-arrival %.1f, want ≈ %.0f", mean, p.MeanInterArrivalMin)
	}
	if mean := durSum / float64(p.Jobs); math.Abs(mean-p.MeanDurationMin) > 25 {
		t.Fatalf("mean duration %.1f, want ≈ %.0f", mean, p.MeanDurationMin)
	}
	// Small sizes dominate, per the Philly shape.
	small, large := 0, 0
	for _, a := range arr {
		if a.GPUs <= 4 {
			small++
		}
		if a.GPUs == 16 {
			large++
		}
	}
	if small <= 2*large {
		t.Fatalf("size skew lost: %d small vs %d large", small, large)
	}
	// Elastic fraction is respected.
	elastic := 0
	for _, a := range arr {
		if a.MinGPUs != a.GPUs || a.MaxGPUs != a.GPUs {
			elastic++
		}
	}
	if f := float64(elastic) / float64(p.Jobs); math.Abs(f-p.ElasticFrac) > 0.12 {
		t.Fatalf("elastic fraction %.2f, want ≈ %.2f", f, p.ElasticFrac)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	p := DefaultArrivalParams()
	a1, err := Arrivals(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Arrivals(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed produced different traces")
	}
	a3, err := Arrivals(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a1, a3) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestArrivalParamsValidate(t *testing.T) {
	bad := []func(*ArrivalParams){
		func(p *ArrivalParams) { p.Jobs = 0 },
		func(p *ArrivalParams) { p.MeanInterArrivalMin = 0 },
		func(p *ArrivalParams) { p.MeanDurationMin = 0 },
		func(p *ArrivalParams) { p.MinDurationMin = p.MeanDurationMin },
		func(p *ArrivalParams) { p.SizeWeights = p.SizeWeights[1:] },
		func(p *ArrivalParams) { p.Sizes = nil; p.SizeWeights = nil },
		func(p *ArrivalParams) { p.Sizes[0] = 0 },
		func(p *ArrivalParams) { p.SizeWeights[0] = -1 },
		func(p *ArrivalParams) { p.ElasticFrac = 1.5 },
	}
	for i, mutate := range bad {
		p := DefaultArrivalParams()
		mutate(&p)
		if _, err := Arrivals(p, 1); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if err := DefaultArrivalParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

// gapStats returns the mean and coefficient of variation of the
// inter-arrival gaps of a trace.
func gapStats(arrivals []JobArrival) (mean, cv float64) {
	var gaps []float64
	for i := 1; i < len(arrivals); i++ {
		gaps = append(gaps, arrivals[i].ArrivalMin-arrivals[i-1].ArrivalMin)
	}
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	var varsum float64
	for _, g := range gaps {
		varsum += (g - mean) * (g - mean)
	}
	return mean, math.Sqrt(varsum/float64(len(gaps))) / mean
}

// TestArrivalsBurstyShape: bursts clump submissions — the gap
// distribution's coefficient of variation rises well above the
// exponential's 1 — while the overall mean inter-arrival time (the
// offered load) stays put.
func TestArrivalsBurstyShape(t *testing.T) {
	p := DefaultArrivalParams()
	p.Jobs = 4000
	base, err := Arrivals(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	p.Burstiness = 0.6
	bursty, err := Arrivals(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	meanBase, cvBase := gapStats(base)
	meanBursty, cvBursty := gapStats(bursty)
	if math.Abs(meanBursty-meanBase)/meanBase > 0.1 {
		t.Fatalf("burstiness changed the offered load: mean gap %.2f vs %.2f", meanBursty, meanBase)
	}
	if cvBase > 1.2 {
		t.Fatalf("Poisson gaps should have CV ~1, got %.2f", cvBase)
	}
	if cvBursty < cvBase*1.2 {
		t.Fatalf("bursty gaps not burstier: CV %.2f vs Poisson %.2f", cvBursty, cvBase)
	}
	// The size mix is burstiness-independent in distribution: the same
	// sizes appear with roughly the same frequencies.
	countOf := func(arr []JobArrival) map[int]int {
		out := map[int]int{}
		for _, a := range arr {
			out[a.GPUs]++
		}
		return out
	}
	cb, cc := countOf(base), countOf(bursty)
	for size, n := range cb {
		if m := cc[size]; math.Abs(float64(m-n)) > 0.2*float64(len(base)) {
			t.Fatalf("burstiness skewed the size mix: %d GPUs %d vs %d", size, m, n)
		}
	}
}

// TestArrivalsBurstyDeterministic: per-seed determinism, and
// Burstiness = 0 reproduces the pre-burst generator byte for byte (the
// zero path must not consume extra RNG draws).
func TestArrivalsBurstyDeterministic(t *testing.T) {
	p := DefaultArrivalParams()
	p.Burstiness = 0.5
	a, err := Arrivals(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Arrivals(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("bursty trace not deterministic per seed")
	}
	p.Burstiness = 0
	zero, err := Arrivals(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Arrivals(DefaultArrivalParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, plain) {
		t.Fatal("Burstiness=0 diverged from the original generator")
	}
}

func TestArrivalsBurstinessValidate(t *testing.T) {
	for _, b := range []float64{-0.1, 1.0, 1.5} {
		p := DefaultArrivalParams()
		p.Burstiness = b
		if _, err := Arrivals(p, 1); err == nil {
			t.Errorf("Burstiness %g accepted", b)
		}
	}
}
