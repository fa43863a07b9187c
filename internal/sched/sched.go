// Package sched simulates the DL cluster scheduler that drives resource
// changes: elastic scale-out/in events derived from the Microsoft Philly
// trace statistics the paper uses (§6.2), redeployments, and fail-stop
// GPU failures. The scheduler notifies a Job (the Tenplex runtime) of
// every allocation change and waits for the reconfiguration to finish,
// mirroring the notification protocol of §5.4.
package sched

import (
	"fmt"
	"math/rand"
	"sort"
)

// EventKind classifies resource changes.
type EventKind int

const (
	// ScaleOut adds GPUs to the job.
	ScaleOut EventKind = iota
	// ScaleIn removes GPUs from the job.
	ScaleIn
	// Redeploy moves the job to a different set of GPUs of equal size.
	Redeploy
	// Failure removes GPUs abruptly; the job must recover, possibly
	// from checkpoints.
	Failure
)

func (k EventKind) String() string {
	switch k {
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	case Redeploy:
		return "redeploy"
	case Failure:
		return "failure"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one scheduler decision.
type Event struct {
	// TimeMin is when the event fires, in minutes since job start.
	TimeMin float64
	Kind    EventKind
	// GPUs is the job's allocation size after the event.
	GPUs int
}

// Trace is a time-ordered sequence of events plus the job's horizon.
type Trace struct {
	// InitialGPUs is the allocation at t = 0.
	InitialGPUs int
	// DurationMin is the job length in minutes.
	DurationMin float64
	Events      []Event
}

// Validate checks ordering and GPU counts.
func (tr Trace) Validate() error {
	if tr.InitialGPUs < 1 {
		return fmt.Errorf("sched: initial GPUs %d", tr.InitialGPUs)
	}
	prev := 0.0
	gpus := tr.InitialGPUs
	for i, e := range tr.Events {
		if e.TimeMin < prev {
			return fmt.Errorf("sched: event %d out of order (%.1f after %.1f)", i, e.TimeMin, prev)
		}
		prev = e.TimeMin
		switch e.Kind {
		case ScaleOut:
			if e.GPUs <= gpus {
				return fmt.Errorf("sched: event %d scale-out to %d from %d", i, e.GPUs, gpus)
			}
		case ScaleIn, Failure:
			if e.GPUs >= gpus || e.GPUs < 1 {
				return fmt.Errorf("sched: event %d %s to %d from %d", i, e.Kind, e.GPUs, gpus)
			}
		case Redeploy:
			if e.GPUs != gpus {
				return fmt.Errorf("sched: event %d redeploy changes size %d -> %d", i, gpus, e.GPUs)
			}
		}
		gpus = e.GPUs
		if e.TimeMin > tr.DurationMin {
			return fmt.Errorf("sched: event %d at %.1f beyond horizon %.1f", i, e.TimeMin, tr.DurationMin)
		}
	}
	return nil
}

// PhillyDerived generates the elastic trace of the paper's §6.2
// experiment: a 538-minute job whose allocation moves between 16, 8 and
// 4 GPUs with a scaling event on average every 35 minutes. The sequence
// is deterministic for a seed.
func PhillyDerived(seed int64) Trace {
	const (
		duration   = 538.0
		meanPeriod = 35.0
	)
	levels := []int{16, 8, 4}
	rng := rand.New(rand.NewSource(seed))
	tr := Trace{InitialGPUs: 16, DurationMin: duration}
	cur := 0 // index into levels
	t := meanPeriod
	for t < duration {
		// Move one level up or down, staying in range. The walk is
		// biased downward (Philly clusters are contended: jobs lose
		// GPUs to preemption more often than they gain spares).
		var next int
		switch cur {
		case 0:
			next = 1
		case len(levels) - 1:
			next = len(levels) - 2
		default:
			next = cur + 1
			if rng.Float64() < 0.35 {
				next = cur - 1
			}
		}
		kind := ScaleIn
		if levels[next] > levels[cur] {
			kind = ScaleOut
		}
		tr.Events = append(tr.Events, Event{TimeMin: t, Kind: kind, GPUs: levels[next]})
		cur = next
		// Jittered inter-arrival with contention-weighted dwell: a job
		// preempted down to 4 GPUs stays there longer than it keeps a
		// full allocation (Philly clusters run hot). The weights are
		// chosen so the expected gap stays at the paper's 35 minutes.
		dwell := meanPeriod * 22.0 / 35.0
		if levels[cur] == 4 {
			dwell = meanPeriod * 56.0 / 35.0
		}
		t += dwell * (0.7 + 0.6*rng.Float64())
	}
	return tr
}

// Job is what the scheduler drives: the Tenplex runtime implements it.
type Job interface {
	// Reconfigure is called when the allocation changes; it returns the
	// reconfiguration cost in seconds (downtime the scheduler accounts
	// to the job).
	Reconfigure(e Event) (reconfigSec float64, err error)
	// StepRate returns the job's current training throughput in steps
	// per second, used to advance progress between events.
	StepRate() float64
}

// RunResult summarizes a simulated elastic run.
type RunResult struct {
	// Steps is the total training steps completed.
	Steps float64
	// ReconfigSec is the cumulative reconfiguration downtime.
	ReconfigSec float64
	// Timeline samples (time, cumulative steps) after every segment.
	Timeline []TimePoint
}

// TimePoint is one sample of training progress over wall-clock time.
type TimePoint struct {
	Min   float64
	Steps float64
	GPUs  int
}

// Run drives job through the trace: between events the job trains at
// StepRate; at each event Reconfigure is charged as downtime. It
// returns the progress timeline — the substrate of Fig. 9.
func Run(tr Trace, job Job) (RunResult, error) {
	if err := tr.Validate(); err != nil {
		return RunResult{}, err
	}
	var res RunResult
	now := 0.0
	gpus := tr.InitialGPUs
	events := append([]Event(nil), tr.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].TimeMin < events[j].TimeMin })

	advance := func(until float64) {
		dt := until - now
		if dt <= 0 {
			return
		}
		res.Steps += job.StepRate() * dt * 60
		now = until
		res.Timeline = append(res.Timeline, TimePoint{Min: now, Steps: res.Steps, GPUs: gpus})
	}
	for _, e := range events {
		advance(e.TimeMin)
		sec, err := job.Reconfigure(e)
		if err != nil {
			return res, fmt.Errorf("sched: reconfigure at %.1f min: %w", e.TimeMin, err)
		}
		res.ReconfigSec += sec
		now += sec / 60
		gpus = e.GPUs
		res.Timeline = append(res.Timeline, TimePoint{Min: now, Steps: res.Steps, GPUs: gpus})
	}
	advance(tr.DurationMin)
	return res, nil
}
