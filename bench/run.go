package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// series holds a run's samples by name: one value per successful
// operation, or a single value for an end-of-run reading.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// pass is one workload instance, traced or not.
type pass interface {
	// setup builds the inputs from the seed, boots whatever serves them
	// and runs one whole, verified operation, so that connections and
	// lazy state exist before the clock starts.
	setup() error
	// op runs operation i and adds its samples to s. An error (which
	// includes a bit mismatch) is that operation's failure, not the
	// run's; a failed operation adds no samples.
	op(i int, s series) error
	// finish adds end-of-run readings after the last operation.
	finish(s series) error
	// close stops and releases everything setup made.
	close() error
}

// reconciler is implemented by passes whose traced spans must add up;
// it returns the violations found.
type reconciler interface {
	reconcile(spans []span) []string
}

// layerSource is implemented by passes that derive per-layer numbers
// from their spans and samples.
type layerSource interface {
	layers(spans []span, s series, out map[string]float64)
}

// runOpts is the length of one pass. A measuring pass takes
// measureOpts; only the smoke run and tests use anything else.
type runOpts struct {
	seconds float64 // measure for this long...
	iters   int     // ...or, when > 0, for exactly this many operations (smoke run and tests)
	warmup  int     // discarded operations after set-up
	setups  int     // how many times to set up; setup_s is their median
}

func measureOpts(w workloadDef, seconds float64) runOpts {
	return runOpts{seconds: seconds, warmup: w.warmup, setups: setupsPerRun}
}

// passResult is everything one pass measured.
type passResult struct {
	workload   string
	seed       int64
	traced     bool
	samples    series
	attempted  int
	failed     int
	firstError string
	spans      []span
	violations []string
	layers     map[string]float64
	elapsed    time.Duration
}

func runPass(w workloadDef, seed int64, traced bool, env *environment, o runOpts) (*passResult, error) {
	res := &passResult{workload: w.name, seed: seed, traced: traced, samples: series{}}
	// Passes that share a process (-all, the traced pass after its
	// reference) start level: garbage of the previous pass collected.
	debug.FreeOSMemory()
	var (
		p  pass
		tr *tracer
	)
	for k := 0; k < o.setups; k++ {
		if p != nil {
			if err := p.close(); err != nil {
				return nil, fmt.Errorf("%s: close between set-ups: %w", w.name, err)
			}
		}
		tr = nil
		if traced {
			tr = newTracer()
		}
		p = w.newPass(seed, tr, env)
		t0 := time.Now()
		if err := p.setup(); err != nil {
			_ = p.close()
			return nil, err
		}
		res.samples.add("setup_s", time.Since(t0).Seconds())
	}
	defer p.close() //nolint:errcheck // the success path closes and checks below

	discard := series{}
	for i := 0; i < o.warmup; i++ {
		if err := p.op(-1-i, discard); err != nil {
			return nil, fmt.Errorf("%s: warm-up operation %d: %w", w.name, i, err)
		}
	}

	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		if o.iters > 0 {
			if i >= o.iters {
				break
			}
		} else if time.Since(start) >= budget {
			break
		}
		res.attempted++
		if err := p.op(i, res.samples); err != nil {
			res.failed++
			if res.firstError == "" {
				res.firstError = err.Error()
			}
		}
	}
	res.elapsed = time.Since(start)
	if err := p.finish(res.samples); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	if traced {
		for _, s := range tr.snapshot() {
			if s.Iter >= 0 { // set-up and warm-up operations are not measured
				res.spans = append(res.spans, s)
			}
		}
		if rc, ok := p.(reconciler); ok {
			res.violations = rc.reconcile(res.spans)
		}
		res.layers = map[string]float64{}
		if ls, ok := p.(layerSource); ok {
			ls.layers(res.spans, res.samples, res.layers)
		}
	}
	if err := p.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	return res, nil
}

// reduce computes one end-to-end metric from the samples; n is how many
// samples it rests on. A p90 without ten samples beyond it is reported
// with tail false.
func reduce(d e2eDef, s series) (v float64, n int, tail bool) {
	xs := s[d.series]
	n = len(xs)
	switch d.reduce {
	case byStrata:
		var medians []float64
		n = 0
		for name, xs := range s {
			if strings.HasPrefix(name, d.series+"/") {
				medians = append(medians, median(xs))
				n += len(xs)
			}
		}
		if len(medians) == 0 {
			return 0, 0, true
		}
		sort.Float64s(medians) // map order must not reach the sum's last bits
		var sum float64
		for _, m := range medians {
			sum += m
		}
		return sum / float64(len(medians)), n, true
	case byP90:
		v, tail = p90(xs)
		return v, n, tail
	case byLast:
		if n > 0 {
			v = xs[n-1]
		}
		return v, n, true
	}
	return median(xs), n, true
}

// procStatusMB reads one "Vm*" line of /proc/<pid>/status in MB.
func procStatusMB(pid int, key string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, fmt.Errorf("/proc/%d/status %s: %w", pid, key, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// procCPUSeconds reads utime+stime of /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const clockTick = 100 // USER_HZ on Linux
	return (ut + st) / clockTick, nil
}
