// Package obs is the end-to-end tracing and metrics layer threaded
// through every Tenplex plane: the coordinator's decision loop, the
// per-job execution chains (plan → transform.apply → store I/O →
// verify → rollback), and the store datapath. It produces nested spans
// keyed on the simulation clock — so sim-mode traces are
// bit-deterministic at any worker count — plus a lock-cheap metrics
// registry that absorbs the previously scattered one-off stat structs
// (transform.Stats, store.ClientStats, coordinator recovery metrics)
// under one namespace.
//
// The disabled path is a nil recorder: every method on *Tracer,
// *Registry, *TaskCtx and *Flight is nil-receiver safe and returns
// before allocating, so instrumentation can stay permanently wired at
// zero cost when observability is off.
//
// Determinism contract: span IDs may only be allocated (NewID) from a
// single deterministic thread — in the coordinator, the decision
// plane. Spans recorded from concurrent execution chains are leaves
// (ID 0) whose payloads must themselves be deterministic in sim mode;
// Export canonically sorts all spans, so the trace bytes depend only
// on the span multiset, never on goroutine scheduling. With Det set,
// wall-clock fields are stripped at record time, which is what makes
// sim traces bit-identical across worker counts.
//
// One scoped exception: when a chaos-injected fault aborts a transform
// attempt, the attempt's in-flight siblings are canceled, so WHICH
// datapath operations ran before the cancellation is genuinely
// schedule-dependent. Phase-level spans (LevelPhases) stay
// deterministic under chaos — attempt outcomes are a pure function of
// decision-plane state — but LevelDatapath detail inside failed
// attempts is as nondeterministic as the cancellation it records.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SchemaV1 is the trace schema version stamped into every exported
// trace and flight recording; readers (tenplex-ctl report) refuse
// files carrying any other version.
const SchemaV1 = "tenplex-trace/v1"

// Level selects how deep the tracer records.
type Level int

const (
	// LevelPhases records decision-plane events and per-change phase
	// spans (plan, transform attempts, backoff, rollback, verify) — the
	// default, cheap enough for permanent use.
	LevelPhases Level = iota
	// LevelDatapath additionally records per-assignment transformer
	// spans and per-operation store spans (including chaos-injected
	// faults and retries), so hostile runs show why time was lost.
	LevelDatapath
)

// Span categories.
const (
	CatDecision = "decision" // decision-plane events (one per coordinator event)
	CatExec     = "exec"     // per-change execution phases, sim-priced
	CatDatapath = "datapath" // per-assignment / per-store-op detail
)

// Span is one trace record. Times are simulation-clock (TMin, minutes;
// DurSec, seconds) so sim traces reconcile exactly with the
// coordinator's netsim-priced metrics; WallNs carries the measured
// wall-clock duration where one exists and is zero in deterministic
// mode.
type Span struct {
	ID     uint64         `json:"id,omitempty"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Cat    string         `json:"cat"`
	Job    string         `json:"job,omitempty"`
	TMin   float64        `json:"t_min"`
	DurSec float64        `json:"dur_sec,omitempty"`
	WallNs int64          `json:"wall_ns,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Tracer collects spans. The zero value is unusable; build one with
// New. A nil *Tracer is the disabled recorder.
type Tracer struct {
	det   bool
	level Level

	mu    sync.Mutex
	spans []Span

	nextID uint64 // decision-plane only; see package comment

	reg    *Registry
	flight *Flight
}

// Options configures a Tracer.
type Options struct {
	// Det strips wall-clock fields at record time so traces are a pure
	// function of the simulated schedule (bit-identical at any worker
	// count). Sim-mode runs set it; wall-mode and service runs don't.
	Det bool
	// Level is the recording depth; the zero value is LevelPhases.
	Level Level
	// FlightCap, when positive, additionally feeds a per-job flight
	// recorder that keeps only the most recent FlightCap spans per job.
	FlightCap int
}

// New builds an enabled Tracer with its own metrics Registry.
func New(o Options) *Tracer {
	t := &Tracer{det: o.Det, level: o.Level, reg: NewRegistry()}
	if o.FlightCap > 0 {
		t.flight = NewFlight(o.FlightCap)
	}
	return t
}

// Enabled reports whether the tracer records at all; callers guard
// attribute-map construction behind it so the off path allocates
// nothing.
func (t *Tracer) Enabled() bool { return t != nil }

// Deep reports whether per-assignment and per-store-op datapath spans
// should be recorded.
func (t *Tracer) Deep() bool { return t != nil && t.level >= LevelDatapath }

// Metrics returns the tracer's registry (nil when disabled).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// FlightRecorder returns the tracer's flight recorder, nil unless
// FlightCap was set.
func (t *Tracer) FlightRecorder() *Flight {
	if t == nil {
		return nil
	}
	return t.flight
}

// NewID allocates the next span ID. It must only be called from a
// single deterministic thread (the coordinator's decision plane), so
// the ID sequence — and therefore the exported trace — is independent
// of execution-plane scheduling. Spans recorded from worker chains are
// leaves and carry ID 0.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	return t.nextID
}

// Record appends one span. Safe for concurrent use; in deterministic
// mode the wall-clock field is stripped so the record is a pure
// function of the simulated schedule.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	if t.det {
		s.WallNs = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	t.flight.Add(s)
}

// Export snapshots the tracer into a canonical Trace: spans sorted by
// the total order (TMin, Job, Cat, Name, Parent, attrs, DurSec,
// WallNs, ID) and the metrics registry flattened into sorted rows.
// Because the order is a pure function of span content, the exported
// bytes depend only on the recorded multiset — never on the
// interleaving of the chains that recorded it.
//
// Deterministic tracers additionally drop metrics whose name carries
// the "_ns" wall-clock suffix: they measure real elapsed time, which —
// like Span.WallNs, stripped at Record — can never be part of a
// bit-reproducible export.
func (t *Tracer) Export() *Trace {
	if t == nil {
		return &Trace{Schema: SchemaV1}
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	SortSpans(spans)
	rows := t.reg.Snapshot()
	if t.det {
		kept := rows[:0]
		for _, r := range rows {
			if !strings.HasSuffix(r.Name, "_ns") {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	return &Trace{Schema: SchemaV1, Spans: spans, Metrics: rows}
}

// SortSpans orders spans canonically (see Export).
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.TMin != b.TMin {
			return a.TMin < b.TMin
		}
		if a.Job != b.Job {
			return a.Job < b.Job
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Parent != b.Parent {
			return a.Parent < b.Parent
		}
		if ak, bk := attrKey(a.Attrs), attrKey(b.Attrs); ak != bk {
			return ak < bk
		}
		if a.DurSec != b.DurSec {
			return a.DurSec < b.DurSec
		}
		if a.WallNs != b.WallNs {
			return a.WallNs < b.WallNs
		}
		return a.ID < b.ID
	})
}

// attrKey flattens an attribute map into a deterministic string for
// sorting ties; encoding/json would do the same but allocates more.
func attrKey(m map[string]any) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + fmt.Sprint(m[k]) + ";"
	}
	return s
}

// TaskCtx hands a worker chain the context it needs to record leaf
// spans under one decided change: the tracer, the parent span and the
// simulated decision time. It is immutable and may be shared by the
// concurrent fetches of one transform attempt. A nil *TaskCtx is a
// no-op sink.
type TaskCtx struct {
	T      *Tracer
	Parent uint64
	Job    string
	TMin   float64
}

// Deep reports whether datapath-level spans should be recorded under
// this context.
func (c *TaskCtx) Deep() bool { return c != nil && c.T.Deep() }

// Record appends one leaf span under the context's parent.
func (c *TaskCtx) Record(name, cat string, wallNs int64, attrs map[string]any) {
	if c == nil || c.T == nil {
		return
	}
	c.T.Record(Span{Parent: c.Parent, Name: name, Cat: cat, Job: c.Job,
		TMin: c.TMin, WallNs: wallNs, Attrs: attrs})
}

// ScopeVar is a job chain's current task context: the decision plane
// allocates a parent span for each task it fans out, the chain installs
// the matching TaskCtx here before executing, and wrapped stores read it
// to parent their per-operation spans. Tasks on one chain are serial,
// but the transformer's internal workers read the scope concurrently —
// hence the atomic pointer. The zero value is ready to use; an unset or
// nil scope is a no-op sink.
type ScopeVar struct{ p atomic.Pointer[TaskCtx] }

// Set installs c as the current task context; nil-safe.
func (v *ScopeVar) Set(c TaskCtx) {
	if v != nil {
		v.p.Store(&c)
	}
}

// Get returns the current task context (nil when never set); nil-safe.
func (v *ScopeVar) Get() *TaskCtx {
	if v == nil {
		return nil
	}
	return v.p.Load()
}

// Flight is the per-job flight recorder: an append-only sink that
// keeps only the most recent Cap spans per job, so a long-running
// coordinator can always dump "what just happened to job X" without
// unbounded memory. A nil *Flight drops everything.
type Flight struct {
	cap    int
	mu     sync.Mutex
	perJob map[string]*ring
	// dropped counts spans evicted by the cap, so dumps are explicit
	// about truncation instead of silently looking complete.
	dropped atomic.Int64
}

type ring struct {
	buf   []Span
	next  int
	total int
}

// NewFlight builds a flight recorder keeping the last cap spans per
// job (cap < 1 means 256).
func NewFlight(cap int) *Flight {
	if cap < 1 {
		cap = 256
	}
	return &Flight{cap: cap, perJob: map[string]*ring{}}
}

// Add appends one span to its job's ring ("" groups cluster-level
// spans).
func (f *Flight) Add(s Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	r := f.perJob[s.Job]
	if r == nil {
		r = &ring{buf: make([]Span, 0, f.cap)}
		f.perJob[s.Job] = r
	}
	if len(r.buf) < f.cap {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % f.cap
		f.dropped.Add(1)
	}
	r.total++
	f.mu.Unlock()
}

// Dropped returns how many spans the cap has evicted so far.
func (f *Flight) Dropped() int64 {
	if f == nil {
		return 0
	}
	return f.dropped.Load()
}

// Snapshot returns the retained spans in canonical order.
func (f *Flight) Snapshot() []Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	var out []Span
	for _, r := range f.perJob {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	}
	f.mu.Unlock()
	SortSpans(out)
	return out
}
