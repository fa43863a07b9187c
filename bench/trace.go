package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Parent is the span that caused it (0 for a
// root) and Iter the loop iteration it belongs to, so the spans of one
// operation share an identifier.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; a nil tracer records nothing, which is
// how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
	t0    time.Time
	iter  atomic.Int32
	// cur is the phase span currently open on the loop goroutine. Store
	// operations issued from the transformer's worker goroutines take it
	// as their parent: one operation is in flight at a time, so there is
	// exactly one open phase.
	cur atomic.Int32
	// Per-iteration counters that are not span durations.
	batch map[int32]batchCounters
	http  map[int32]httpCounters
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setIter names the loop iteration the spans that follow belong to;
// set-up and warm-up operations get negative numbers.
func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter.Store(int32(i))
	}
}

func (t *tracer) start(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter.Load(), Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) { t.endWith(id, 0) }

func (t *tracer) endWith(id int32, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes = now, bytes
	t.mu.Unlock()
}

// phase runs fn as a child of the current phase, makes it the current
// phase while it runs, and returns its wall time. It is what the loop
// goroutine wraps every sequential step in, traced or not.
func (t *tracer) phase(name string, fn func() error) (time.Duration, error) {
	var id, prev int32
	if t != nil {
		prev = t.cur.Load()
		id = t.start(name, prev)
		t.cur.Store(id)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if t != nil {
		t.end(id)
		t.cur.Store(prev)
	}
	return d, err
}

// run is phase for a step that cannot fail.
func (t *tracer) run(name string, fn func()) time.Duration {
	d, _ := t.phase(name, func() error { fn(); return nil })
	return d
}

func (t *tracer) current() int32 {
	if t == nil {
		return 0
	}
	return t.cur.Load()
}

// snapshot returns the finished spans; unfinished ones (End 0) are
// dropped, they belong to an operation that failed midway.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// interval is a half-open [lo, hi) stretch of trace time.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by ivs, overlaps counted once.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	lo, hi := s[0].lo, s[0].hi
	for _, iv := range s[1:] {
		if iv.lo > hi {
			total += hi - lo
			lo, hi = iv.lo, iv.hi
			continue
		}
		if iv.hi > hi {
			hi = iv.hi
		}
	}
	return total + hi - lo
}

// clip restricts iv to within [lo, hi); ok is false when nothing is left.
func clip(iv interval, lo, hi int64) (interval, bool) {
	if iv.lo < lo {
		iv.lo = lo
	}
	if iv.hi > hi {
		iv.hi = hi
	}
	return iv, iv.hi > iv.lo
}

// spanTree indexes spans by id and by parent.
type spanTree struct {
	byID     map[int32]span
	children map[int32][]int32
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{byID: make(map[int32]span, len(spans)), children: map[int32][]int32{}}
	for _, s := range spans {
		t.byID[s.ID] = s
		t.children[s.Parent] = append(t.children[s.Parent], s.ID)
	}
	return t
}

// selfTime is a span's duration minus the part of it its direct
// children cover, overlapping children counted once.
func (t *spanTree) selfTime(id int32) int64 {
	s := t.byID[id]
	var ivs []interval
	for _, c := range t.children[id] {
		cs := t.byID[c]
		if iv, ok := clip(interval{cs.Start, cs.End}, s.Start, s.End); ok {
			ivs = append(ivs, iv)
		}
	}
	return s.dur() - unionLen(ivs)
}

// descendants appends every span below id whose name has the prefix.
func (t *spanTree) descendants(id int32, prefix string, out []span) []span {
	for _, c := range t.children[id] {
		cs := t.byID[c]
		if strings.HasPrefix(cs.Name, prefix) {
			out = append(out, cs)
		}
		out = t.descendants(c, prefix, out)
	}
	return out
}

// Span names the wrappers record. Layer prefixes are what attribution
// and reconciliation select on.
const (
	spanIter      = "iter"
	spanDeploy    = "deploy"
	spanReconfig  = "reconfig"
	spanVerify    = "verify"
	spanPlan      = "plan"
	spanApply     = "transform.apply"
	spanCkptSave  = "checkpoint.save"
	spanCkptOpen  = "checkpoint.open"
	spanReadRange = "checkpoint.read_range"
	spanLoadPTC   = "deploy.load_ptc"
	spanDeployCk  = "deploy.checkpoint"
	spanReadPTC   = "verify.read_ptc"
	spanEqual     = "verify.equal"
	spanRoundTrip = "http.roundtrip"
	pfxClient     = "store.client."
	pfxServer     = "store.server."
)

// applyLayers splits one transform.apply span's wall time among the
// layers under it by the rule "the deepest active layer owns the
// instant": time with a server handler running is the server's, else
// time with a round trip open is the transport's, else time inside a
// store-client call is the client's, else time inside a checkpoint
// range read is the checkpoint's, and what is left is the transformer's
// own. The five parts sum to the span exactly. Summed busy times cannot
// be used for this: up to 8 assignments run at once, so they exceed
// wall time.
type applyLayers struct {
	server, transport, client, ckptRead, self int64
}

func (t *spanTree) applyLayers(id int32) applyLayers {
	s := t.byID[id]
	var acc []interval
	grow := func(prefix string) int64 {
		for _, d := range t.descendants(id, prefix, nil) {
			if iv, ok := clip(interval{d.Start, d.End}, s.Start, s.End); ok {
				acc = append(acc, iv)
			}
		}
		return unionLen(acc)
	}
	uServer := grow(pfxServer)
	uHTTP := grow(spanRoundTrip)
	uClient := grow(pfxClient)
	uRead := grow(spanReadRange)
	return applyLayers{
		server:    uServer,
		transport: uHTTP - uServer,
		client:    uClient - uHTTP,
		ckptRead:  uRead - uClient,
		self:      s.dur() - uRead,
	}
}

// reconcile checks that the layer numbers add up to the end-to-end
// ones. planPayload gives, per iteration, the bytes the transformer says
// it fetched from device stores. A non-empty result fails the run.
func reconcile(spans []span, planPayload map[int32]int64) []string {
	var bad []string
	t := buildTree(spans)

	var reconfigNs, phaseNs, roundTripNs, handlerNs int64
	for _, s := range spans {
		switch s.Name {
		case spanReconfig:
			reconfigNs += s.dur()
			for _, c := range t.children[s.ID] {
				phaseNs += t.byID[c].dur()
			}
		case spanApply:
			// Children must lie inside the apply span, so their union can
			// never exceed it.
			var ivs []interval
			for _, c := range t.children[s.ID] {
				cs := t.byID[c]
				ivs = append(ivs, interval{cs.Start, cs.End})
				if cs.Start < s.Start || cs.End > s.End {
					bad = append(bad, fmt.Sprintf("iter %d: %s [%d,%d] outside its transform.apply [%d,%d]",
						s.Iter, cs.Name, cs.Start, cs.End, s.Start, s.End))
				}
			}
			if u := unionLen(ivs); u > s.dur() {
				bad = append(bad, fmt.Sprintf("iter %d: store ops cover %d ns of a %d ns transform.apply", s.Iter, u, s.dur()))
			}
		case spanRoundTrip:
			roundTripNs += s.dur()
			for _, c := range t.children[s.ID] {
				handlerNs += t.byID[c].dur()
			}
		}
	}
	// Compared in total: a handler returns a little after the client has
	// read its whole response, so one handler span may outlast its round
	// trip by scheduling noise; the sums may not.
	if handlerNs > roundTripNs {
		bad = append(bad, fmt.Sprintf("server handlers busy %d ns exceed the round trips' %d ns", handlerNs, roundTripNs))
	}
	if reconfigNs > 0 {
		if gap := float64(reconfigNs-phaseNs) / float64(reconfigNs); gap > 0.02 || gap < 0 {
			bad = append(bad, fmt.Sprintf("phases sum to %d ns of %d ns reconfig (gap %.4f, limit 0.02)", phaseNs, reconfigNs, gap))
		}
	}

	// Payload bytes the client wrapper saw inside apply spans must equal
	// what the transformer says it fetched from device stores.
	seen := map[int32]int64{}
	for _, s := range spans {
		if s.Name != spanApply {
			continue
		}
		for _, d := range t.descendants(s.ID, pfxClient, nil) {
			switch d.Name {
			case pfxClient + "batch_query", pfxClient + "query_into", pfxClient + "query":
				seen[s.Iter] += d.Bytes
			}
		}
	}
	for it, want := range planPayload {
		if got := seen[it]; got != want {
			bad = append(bad, fmt.Sprintf("iter %d: client wrapper saw %d payload bytes, transformer fetched %d", it, got, want))
		}
	}
	sort.Strings(bad)
	if len(bad) > 8 {
		bad = append(bad[:8], fmt.Sprintf("... and %d more", len(bad)-8))
	}
	return bad
}
