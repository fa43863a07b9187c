package sched

import (
	"fmt"
	"math/rand"
)

// This file factors the Microsoft Philly trace statistics (Jeon et al.,
// ATC'19) that the paper derives its workloads from (§6.2) into a
// reusable multi-job arrival-trace generator. The single-job elastic
// Trace API (PhillyDerived) stays as-is; the coordinator's admission
// queue consumes the multi-job form.

// JobArrival describes one job of a multi-job cluster workload: when it
// is submitted, how many GPUs it asks for, how elastic it is, and how
// long it runs once admitted.
type JobArrival struct {
	// Name identifies the job, e.g. "job-03".
	Name string
	// ArrivalMin is the submission time in minutes since trace start.
	ArrivalMin float64
	// DurationMin is the job's service time once admitted.
	DurationMin float64
	// GPUs is the requested allocation size.
	GPUs int
	// MinGPUs and MaxGPUs bound elastic resizing: the scheduler may
	// shrink the job to MinGPUs under contention and grow it to MaxGPUs
	// when the cluster has spare capacity. MinGPUs == MaxGPUs == GPUs
	// marks a rigid job.
	MinGPUs, MaxGPUs int
}

// ArrivalParams tunes the multi-job generator. The defaults follow the
// Philly cluster's published shape: Poisson submissions, job sizes
// heavily skewed towards few GPUs with a thin tail of large jobs, and
// heavy-tailed (exponential) service times.
type ArrivalParams struct {
	// Jobs is the number of arrivals to generate.
	Jobs int
	// MeanInterArrivalMin is the mean gap between submissions.
	MeanInterArrivalMin float64
	// MeanDurationMin and MinDurationMin shape the service-time
	// distribution: MinDurationMin + Exp(MeanDurationMin - MinDurationMin).
	MeanDurationMin float64
	MinDurationMin  float64
	// Sizes are the possible requested GPU counts, drawn with the
	// matching SizeWeights (normalized internally).
	Sizes       []int
	SizeWeights []float64
	// ElasticFrac is the fraction of jobs that accept resizing; an
	// elastic job tolerates [max(1, GPUs/2), 2·GPUs].
	ElasticFrac float64
	// Burstiness in [0, 1) clusters submissions into bursts: each gap
	// is drawn from a short exponential (BurstGapFactor of the mean)
	// with probability Burstiness and from a stretched one otherwise,
	// chosen so the OVERALL mean inter-arrival time stays
	// MeanInterArrivalMin — burstier traces are directly comparable to
	// Poisson ones at the same load. 0 (the default) is the original
	// Poisson process, byte-identical trace for byte-identical trace.
	Burstiness float64
}

// BurstGapFactor scales the mean of the within-burst inter-arrival
// gap: a burst submission follows its predecessor after ~10% of the
// nominal mean gap.
const BurstGapFactor = 0.1

// DefaultArrivalParams returns the Philly-derived workload shape: most
// jobs are small (1–4 GPUs), a few are large, submissions arrive every
// ~30 minutes on average and service times are heavy-tailed around two
// hours — the contended-cluster regime in which elastic reallocation
// pays off.
func DefaultArrivalParams() ArrivalParams {
	return ArrivalParams{
		Jobs:                8,
		MeanInterArrivalMin: 30,
		MeanDurationMin:     120,
		MinDurationMin:      20,
		Sizes:               []int{1, 2, 4, 8, 16},
		SizeWeights:         []float64{0.30, 0.25, 0.20, 0.15, 0.10},
		ElasticFrac:         0.75,
	}
}

// Validate checks the generator parameters.
func (p ArrivalParams) Validate() error {
	if p.Jobs < 1 {
		return fmt.Errorf("sched: arrivals need Jobs >= 1, got %d", p.Jobs)
	}
	if p.MeanInterArrivalMin <= 0 || p.MeanDurationMin <= 0 {
		return fmt.Errorf("sched: arrival means must be positive")
	}
	if p.MinDurationMin < 0 || p.MinDurationMin >= p.MeanDurationMin {
		return fmt.Errorf("sched: MinDurationMin %.1f out of range for mean %.1f",
			p.MinDurationMin, p.MeanDurationMin)
	}
	if len(p.Sizes) == 0 || len(p.Sizes) != len(p.SizeWeights) {
		return fmt.Errorf("sched: %d sizes with %d weights", len(p.Sizes), len(p.SizeWeights))
	}
	var sum float64
	for i, w := range p.SizeWeights {
		if p.Sizes[i] < 1 {
			return fmt.Errorf("sched: size %d at index %d", p.Sizes[i], i)
		}
		if w <= 0 {
			return fmt.Errorf("sched: non-positive size weight %g", w)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("sched: size weights sum to %g", sum)
	}
	if p.ElasticFrac < 0 || p.ElasticFrac > 1 {
		return fmt.Errorf("sched: ElasticFrac %g outside [0,1]", p.ElasticFrac)
	}
	if p.Burstiness < 0 || p.Burstiness >= 1 {
		return fmt.Errorf("sched: Burstiness %g outside [0,1)", p.Burstiness)
	}
	return nil
}

// Arrivals generates a deterministic multi-job arrival trace for the
// given seed: jobs in submission order, each with its requested size,
// elasticity bounds and service time.
func Arrivals(p ArrivalParams, seed int64) ([]JobArrival, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var weightSum float64
	for _, w := range p.SizeWeights {
		weightSum += w
	}
	// The burst mixture preserves the overall mean: a Burstiness
	// fraction of gaps shrink to BurstGapFactor of the mean, so the
	// remaining gaps stretch to compensate.
	stretch := 1.0
	if p.Burstiness > 0 {
		stretch = (1 - BurstGapFactor*p.Burstiness) / (1 - p.Burstiness)
	}
	out := make([]JobArrival, 0, p.Jobs)
	t := 0.0
	for i := 0; i < p.Jobs; i++ {
		if i > 0 {
			gap := rng.ExpFloat64() * p.MeanInterArrivalMin
			// Burstiness == 0 must not touch the RNG stream: traces stay
			// byte-identical to the pre-burst generator.
			if p.Burstiness > 0 {
				if rng.Float64() < p.Burstiness {
					gap *= BurstGapFactor
				} else {
					gap *= stretch
				}
			}
			t += gap
		}
		size := p.Sizes[len(p.Sizes)-1]
		pick := rng.Float64() * weightSum
		for k, w := range p.SizeWeights {
			if pick < w {
				size = p.Sizes[k]
				break
			}
			pick -= w
		}
		a := JobArrival{
			Name:        fmt.Sprintf("job-%02d", i),
			ArrivalMin:  t,
			DurationMin: p.MinDurationMin + rng.ExpFloat64()*(p.MeanDurationMin-p.MinDurationMin),
			GPUs:        size,
			MinGPUs:     size,
			MaxGPUs:     size,
		}
		if rng.Float64() < p.ElasticFrac {
			a.MinGPUs = size / 2
			if a.MinGPUs < 1 {
				a.MinGPUs = 1
			}
			a.MaxGPUs = 2 * size
		}
		out = append(out, a)
	}
	return out, nil
}
