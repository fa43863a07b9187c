package obs

import (
	"bytes"
	"sync"
	"testing"
)

// TestNilReceiversAreNoOps pins the zero-cost-when-off contract: every
// method on a nil Tracer, Registry, Flight, TaskCtx and ScopeVar must
// be a safe no-op, so instrumented code never branches on "is obs on".
func TestNilReceiversAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Deep() {
		t.Fatal("nil tracer claims to be enabled")
	}
	if tr.Metrics() != nil || tr.FlightRecorder() != nil {
		t.Fatal("nil tracer handed out live sinks")
	}
	if id := tr.NewID(); id != 0 {
		t.Fatalf("nil tracer NewID = %d", id)
	}
	tr.Record(Span{Name: "x", Cat: CatExec})
	if len(tr.Export().Spans) != 0 {
		t.Fatal("nil tracer recorded a span")
	}
	exp := tr.Export()
	if exp.Schema != SchemaV1 || len(exp.Spans) != 0 {
		t.Fatalf("nil tracer export = %+v", exp)
	}
	var buf bytes.Buffer
	if err := exp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	var reg *Registry
	reg.Add("a", 1)
	reg.AddFloat("b", 1)
	reg.Counter("a").Add(1)
	reg.Gauge("b").Set(2)
	reg.Histogram("c").Observe(3)
	if rows := reg.Snapshot(); rows != nil {
		t.Fatalf("nil registry snapshot = %v", rows)
	}

	var f *Flight
	f.Add(Span{Name: "x", Cat: CatExec})
	if f.Dropped() != 0 || f.Snapshot() != nil {
		t.Fatal("nil flight retained spans")
	}
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	var c *TaskCtx
	if c.Deep() {
		t.Fatal("nil TaskCtx is deep")
	}
	c.Record("x", CatDatapath, 1, nil)

	var v *ScopeVar
	v.Set(TaskCtx{})
	if v.Get() != nil {
		t.Fatal("nil ScopeVar returned a context")
	}
}

// TestDetStripsWallClock: deterministic tracers must strip WallNs at
// record time and wall-clock (*_ns) metrics at export time — both are
// real-time measurements that can never be bit-reproducible.
func TestDetStripsWallClock(t *testing.T) {
	det := New(Options{Det: true})
	det.Record(Span{ID: det.NewID(), Name: "p", Cat: CatExec, WallNs: 123})
	det.Metrics().Histogram("transform.apply_ns").Observe(456)
	det.Metrics().Add("coord.events", 1)
	exp := det.Export()
	if exp.Spans[0].WallNs != 0 {
		t.Fatalf("det span kept WallNs %d", exp.Spans[0].WallNs)
	}
	if _, ok := Get(exp.Metrics, "transform.apply_ns"); ok {
		t.Fatal("det export kept a wall-clock metric")
	}
	if _, ok := Get(exp.Metrics, "coord.events"); !ok {
		t.Fatal("det export dropped a sim-deterministic metric")
	}

	wall := New(Options{})
	wall.Record(Span{ID: wall.NewID(), Name: "p", Cat: CatExec, WallNs: 123})
	wall.Metrics().Histogram("transform.apply_ns").Observe(456)
	exp = wall.Export()
	if exp.Spans[0].WallNs != 123 {
		t.Fatal("non-det span lost WallNs")
	}
	if _, ok := Get(exp.Metrics, "transform.apply_ns"); !ok {
		t.Fatal("non-det export dropped the wall-clock histogram")
	}
}

// TestSortSpansCanonical: export order must be a pure function of the
// span multiset — two tracers fed the same spans in different
// interleavings export identical sequences.
func TestSortSpansCanonical(t *testing.T) {
	spans := []Span{
		{ID: 3, Name: "b", Cat: CatExec, Job: "j2", TMin: 5},
		{Name: "store.upload", Cat: CatDatapath, Job: "j1", TMin: 5, Parent: 1,
			Attrs: map[string]any{"path": "a"}},
		{Name: "store.upload", Cat: CatDatapath, Job: "j1", TMin: 5, Parent: 1,
			Attrs: map[string]any{"path": "b"}},
		{ID: 1, Name: "a", Cat: CatExec, Job: "j1", TMin: 5},
		{ID: 2, Name: "decision/arrival", Cat: CatDecision, TMin: 0},
	}
	a := New(Options{})
	for _, s := range spans {
		a.Record(s)
	}
	b := New(Options{})
	for i := len(spans) - 1; i >= 0; i-- {
		b.Record(spans[i])
	}
	sa, sb := a.Export().Spans, b.Export().Spans
	if len(sa) != len(spans) || len(sb) != len(spans) {
		t.Fatal("lost spans")
	}
	for i := range sa {
		if sa[i].Name != sb[i].Name || attrKey(sa[i].Attrs) != attrKey(sb[i].Attrs) {
			t.Fatalf("order diverged at %d: %s vs %s", i, sa[i].Name, sb[i].Name)
		}
	}
	if sa[0].Cat != CatDecision {
		t.Fatalf("earliest span not first: %+v", sa[0])
	}
}

// TestFlightRing: the recorder keeps only the last cap spans per job,
// counts evictions explicitly, and snapshots in canonical order.
func TestFlightRing(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Add(Span{Name: "s", Cat: CatExec, Job: "a", TMin: float64(i)})
	}
	f.Add(Span{Name: "s", Cat: CatExec, Job: "b", TMin: 100})
	got := f.Snapshot()
	if len(got) != 5 {
		t.Fatalf("retained %d spans, want 5", len(got))
	}
	if f.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", f.Dropped())
	}
	// Job a's ring must hold its most recent four spans, oldest first.
	for i, want := range []float64{6, 7, 8, 9} {
		if got[i].Job != "a" || got[i].TMin != want {
			t.Fatalf("span %d = %+v, want job a t=%v", i, got[i], want)
		}
	}
	if got[4].Job != "b" {
		t.Fatalf("last span = %+v, want job b", got[4])
	}
	if NewFlight(0).cap != 256 {
		t.Fatal("default cap not applied")
	}
}

// TestTracerFeedsFlight: a tracer built with FlightCap mirrors every
// recorded span into the flight recorder.
func TestTracerFeedsFlight(t *testing.T) {
	tr := New(Options{FlightCap: 2})
	for i := 0; i < 5; i++ {
		tr.Record(Span{Name: "s", Cat: CatExec, Job: "a", TMin: float64(i)})
	}
	f := tr.FlightRecorder()
	if f == nil {
		t.Fatal("no flight recorder")
	}
	if n := len(f.Snapshot()); n != 2 {
		t.Fatalf("flight retained %d, want 2", n)
	}
	if len(tr.Export().Spans) != 5 {
		t.Fatal("tracer itself must keep everything")
	}
}

// TestRegistry: handles are stable, kinds don't collide, and Snapshot
// flattens everything sorted by name.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Add("z.count", 2)
	r.Add("z.count", 3)
	r.AddFloat("a.gauge", 1.5)
	r.Gauge("a.gauge").Add(0.25)
	r.Gauge("set.gauge").Set(9)
	h := r.Histogram("m.hist")
	h.Observe(1)
	h.Observe(1 << 20)
	if got := r.Counter("z.count").Value(); got != 5 {
		t.Fatalf("counter = %d", got)
	}
	if got := r.Gauge("a.gauge").Value(); got != 1.75 {
		t.Fatalf("gauge = %v", got)
	}
	if h.Count() != 2 || h.Sum() != 1+1<<20 {
		t.Fatalf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	rows := r.Snapshot()
	if len(rows) != 4 {
		t.Fatalf("snapshot rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Name >= rows[i].Name {
			t.Fatalf("snapshot not sorted: %s >= %s", rows[i-1].Name, rows[i].Name)
		}
	}
	if row, ok := Get(rows, "m.hist"); !ok || row.Kind != "histogram" || row.Count != 2 {
		t.Fatalf("Get(m.hist) = %+v, %v", row, ok)
	}
	if _, ok := Get(rows, "missing"); ok {
		t.Fatal("Get found a missing row")
	}
}

// TestRegistryConcurrent: many goroutines hammering one name must
// neither race (the -race CI job runs this) nor lose increments.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("c", 1)
				r.AddFloat("g", 0.5)
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 4000 {
		t.Fatalf("gauge = %v, want 4000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

// TestScopeVar: the chain scope delivers the installed context to
// concurrent readers, and TaskCtx.Record parents leaves correctly.
func TestScopeVar(t *testing.T) {
	tr := New(Options{Level: LevelDatapath})
	var v ScopeVar
	if v.Get() != nil {
		t.Fatal("unset scope returned a context")
	}
	v.Set(TaskCtx{T: tr, Parent: 7, Job: "j", TMin: 3})
	c := v.Get()
	if !c.Deep() {
		t.Fatal("datapath scope not deep")
	}
	c.Record("store.query", CatDatapath, 11, map[string]any{"path": "p"})
	exp := tr.Export()
	if len(exp.Spans) != 1 {
		t.Fatalf("spans = %d", len(exp.Spans))
	}
	s := exp.Spans[0]
	if s.Parent != 7 || s.Job != "j" || s.TMin != 3 || s.WallNs != 11 {
		t.Fatalf("leaf span = %+v", s)
	}
}
