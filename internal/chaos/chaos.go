// Package chaos is a deterministic, seeded fault injector for hostile-
// cluster simulation: store I/O errors and stragglers on the Tensor
// Store datapath, and cluster-level hostility — flapping devices that fail
// AND recover, spot-reclamation notices with a deadline, and degraded
// inter-worker links — consumed by the coordinator's event loop.
//
// Determinism is the package's contract: every fault decision is drawn
// from a splitmix64 stream keyed by (Plan.Seed, job, attempt key), so
// the same plan replays the same faults bit for bit. Store faults are
// decided at *attempt* granularity: each transform attempt arms a fresh
// stream, and whether the attempt fails is a property of the stream
// alone, independent of goroutine interleaving — draws before the first
// failing one all succeed, so no execution order can skip past it, and
// the attempt's outcome (though not which concrete op observed the
// fault) replays identically at any worker count.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/store"
)

// Err is the sentinel every injected fault wraps; errors.Is(err, Err)
// discriminates injected hostility from genuine datapath bugs.
var Err = errors.New("chaos: injected fault")

// DeviceFlap schedules a device that fails and later recovers —
// possibly repeatedly. Unlike a fail-stop FailureSpec, a flapping
// device re-enters service unless the coordinator's suspicion-count
// failure detector quarantines it first.
type DeviceFlap struct {
	Device cluster.DeviceID
	// FailMin is the first failure time in minutes; the device recovers
	// DownMin minutes later.
	FailMin float64
	DownMin float64
	// Cycles repeats the fail/recover pair (0 means 1), each cycle
	// starting PeriodMin after the previous one.
	Cycles    int
	PeriodMin float64
}

// SpotReclaim schedules a spot/preemptible reclamation: the provider
// announces at NoticeMin that the device disappears WindowMin minutes
// later, giving the coordinator a window to drain state off it.
type SpotReclaim struct {
	Device    cluster.DeviceID
	NoticeMin float64
	WindowMin float64
}

// LinkDegrade throttles one worker's NIC to Factor of its nominal
// bandwidth for a window — a congested or flapping link. The
// coordinator prices reconfigurations through netsim against the
// degraded bandwidth while the window is open.
type LinkDegrade struct {
	Worker      int
	StartMin    float64
	DurationMin float64
	// Factor scales the worker's NetBW; must be in (0, 1].
	Factor float64
}

// Plan is a deterministic hostile-cluster schedule plus the datapath
// fault rates. The zero value injects nothing.
type Plan struct {
	// Seed keys every fault-decision stream; runs with equal plans are
	// bit-identical.
	Seed int64

	// StoreFaultRate is the per-operation probability of an injected
	// I/O error on a wrapped Tensor Store during an armed transform
	// attempt (see Injector.BeginAttempt).
	StoreFaultRate float64
	// StoreLatency sleeps every wrapped store operation (real time);
	// zero — the simulation default — keeps deterministic runs instant.
	StoreLatency time.Duration
	// StragglerRate picks operations that stall for StragglerLatency
	// instead of StoreLatency.
	StragglerRate    float64
	StragglerLatency time.Duration

	// Flaps, Reclaims and LinkDegrades are the cluster-level events the
	// coordinator schedules onto its heap.
	Flaps        []DeviceFlap
	Reclaims     []SpotReclaim
	LinkDegrades []LinkDegrade
}

// Validate range-checks the plan against a cluster size.
func (p *Plan) Validate(devices, workers int) error {
	if p.StoreFaultRate < 0 || p.StoreFaultRate >= 1 {
		return fmt.Errorf("chaos: StoreFaultRate %v outside [0, 1)", p.StoreFaultRate)
	}
	if p.StragglerRate < 0 || p.StragglerRate > 1 {
		return fmt.Errorf("chaos: StragglerRate %v outside [0, 1]", p.StragglerRate)
	}
	for _, f := range p.Flaps {
		if int(f.Device) < 0 || int(f.Device) >= devices {
			return fmt.Errorf("chaos: flap of unknown device %d", f.Device)
		}
		if f.FailMin < 0 || f.DownMin <= 0 {
			return fmt.Errorf("chaos: flap of device %d needs FailMin >= 0 and DownMin > 0", f.Device)
		}
		if f.Cycles > 1 && f.PeriodMin <= f.DownMin {
			return fmt.Errorf("chaos: flap of device %d repeats faster than it recovers", f.Device)
		}
	}
	for _, r := range p.Reclaims {
		if int(r.Device) < 0 || int(r.Device) >= devices {
			return fmt.Errorf("chaos: reclaim of unknown device %d", r.Device)
		}
		if r.NoticeMin < 0 || r.WindowMin < 0 {
			return fmt.Errorf("chaos: reclaim of device %d has a negative time", r.Device)
		}
	}
	for _, d := range p.LinkDegrades {
		if d.Worker < 0 || d.Worker >= workers {
			return fmt.Errorf("chaos: degrade of unknown worker %d", d.Worker)
		}
		if d.Factor <= 0 || d.Factor > 1 {
			return fmt.Errorf("chaos: degrade factor %v outside (0, 1]", d.Factor)
		}
		if d.StartMin < 0 || d.DurationMin <= 0 {
			return fmt.Errorf("chaos: degrade of worker %d needs StartMin >= 0 and DurationMin > 0", d.Worker)
		}
	}
	return nil
}

// Injector executes a Plan's datapath side: it wraps Tensor Store
// accesses with deterministic fault decisions. One Injector serves all
// jobs of a run; each job's faults come from its own streams.
type Injector struct {
	plan Plan

	mu   sync.Mutex
	jobs map[string]*faultStream
}

// NewInjector builds an injector for the plan.
func NewInjector(p Plan) *Injector {
	return &Injector{plan: p, jobs: map[string]*faultStream{}}
}

// BeginAttempt arms fault injection on job's wrapped stores for one
// transform attempt, seeding a FRESH decision stream from (seed, job,
// key). Callers pass a key unique per (reconfiguration, attempt) —
// derived from decision-plane state, never from execution order — so
// replays are bit-identical at any worker count. Jobs' reconfiguration
// attempts are serialized on their task chains, so Begin/EndAttempt
// need no caller-side locking across attempts.
func (in *Injector) BeginAttempt(job string, key uint64) {
	st := in.stream(job)
	st.mu.Lock()
	st.armed = true
	st.state = seedState(in.plan.Seed, job, key)
	st.mu.Unlock()
}

// EndAttempt disarms job's fault injection; wrapped stores pass through
// untouched until the next BeginAttempt. Recovery actions — checkpoint
// restores and saves, state verification — run disarmed so the
// rollback path itself is reliable (bounded degradation, no livelock).
func (in *Injector) EndAttempt(job string) {
	st := in.stream(job)
	st.mu.Lock()
	st.armed = false
	st.mu.Unlock()
}

func (in *Injector) stream(job string) *faultStream {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.jobs[job]
	if !ok {
		st = &faultStream{}
		in.jobs[job] = st
	}
	return st
}

// WrapAccess wraps one Tensor Store of job with fault injection, a hook
// of store.Wrap. tag names the wrapped store (e.g. its device), so
// replicas of the same path fail independently. While the job's stream
// is disarmed the wrapper is a pass-through; while armed, each
// operation's outcome is a pure function of (attempt seed, tag, op,
// paths) — never of the order concurrent operations happen to run in.
// A plain call and its context twin are one operation, and a batch, an
// /assemble or an /upload-batch fails or stalls whole, the way a dying
// connection takes the whole response stream with it. A stall gives up
// when the caller's context does.
func (in *Injector) WrapAccess(job, tag string, inner store.Access) store.Access {
	st := in.stream(job)
	return store.Wrap(inner, func(ctx context.Context, op store.Op) (store.Op, error) {
		fail, delay := st.decideOp(in.plan, opHash(identity(tag, &op)...))
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return op, ctx.Err()
			}
		}
		if fail {
			return op, fmt.Errorf("%w: %s on job %s", Err, op.Name, job)
		}
		err := op.Call(ctx)
		return op, err
	})
}

// identity is what an operation's fate hashes: the store's tag, the op,
// and the paths it names — with the range for a queryinto, and every
// entry's range for a batch.
func identity(tag string, op *store.Op) []string {
	id := []string{tag, op.Name}
	switch op.Name {
	case "queryinto":
		return append(id, op.Path, fmt.Sprint(op.Reg))
	case "rename":
		return append(id, op.Path, op.Dst)
	case "batch":
		for _, e := range op.Entries {
			id = append(id, e.Path, fmt.Sprint(e.Reg))
		}
	case "assemble":
		for _, it := range op.Items {
			id = append(id, it.Path)
		}
	case "uploadbatch":
		for _, it := range op.Uploads {
			id = append(id, it.Path)
		}
	default:
		id = append(id, op.Path)
	}
	return id
}

// --- deterministic decision streams ---

// faultStream is one deterministic decision stream. For store ops the
// state is the attempt seed and never advances: each operation's
// outcome hashes (attempt seed, store tag, op, path), so the decision
// belongs to the OPERATION, not to the order concurrent operations draw
// in. This matters because transform ops are not equally fatal — a
// fault landing on a read with a checkpoint fallback is absorbed while
// one landing on an upload aborts the attempt — so order-assigned
// outcomes would make attempt results schedule-dependent.
type faultStream struct {
	mu    sync.Mutex
	armed bool
	state uint64
}

// decideOp decides one store operation's fate from the attempt seed and
// the op's identity hash, independent of any other operation.
func (st *faultStream) decideOp(p Plan, opHash uint64) (fail bool, delay time.Duration) {
	st.mu.Lock()
	armed, base := st.armed, st.state
	st.mu.Unlock()
	if !armed {
		return false, 0
	}
	local := faultStream{state: base ^ opHash}
	return local.fate(p)
}

// fate draws an operation's fate from st: whether it fails, and how
// long it stalls first.
func (st *faultStream) fate(p Plan) (fail bool, delay time.Duration) {
	delay = p.StoreLatency
	if p.StragglerRate > 0 && st.unit() < p.StragglerRate {
		delay = p.StragglerLatency
	}
	return p.StoreFaultRate > 0 && st.unit() < p.StoreFaultRate, delay
}

// unit returns the next uniform draw in [0, 1).
func (st *faultStream) unit() float64 {
	st.state += 0x9E3779B97F4A7C15
	z := st.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// seedState derives the initial splitmix64 state for (seed, name, key)
// via FNV-1a over the name mixed with the key.
func seedState(seed int64, name string, key uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return uint64(seed) ^ h ^ (key * 0x9E3779B97F4A7C15)
}

// opHash identifies one store operation: the wrapped store's tag, the
// op kind and its path(s), FNV-1a folded and finalized so single-bit
// input changes flip the whole decision state.
func opHash(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff // separator: ("a","bc") must differ from ("ab","c")
		h *= 1099511628211
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}
