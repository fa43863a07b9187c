package main

import (
	"strings"
	"testing"
)

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		in   []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},           // overlap counted once
		{[]interval{{0, 10}, {2, 4}}, 10},            // nested
		{[]interval{{20, 30}, {0, 10}}, 20},          // disjoint, unsorted
		{[]interval{{0, 10}, {10, 20}, {5, 12}}, 20}, // chain
	} {
		if got := unionLen(c.in); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// Self time is the span minus the union of its children: two children
// that overlap must not be subtracted twice, and a child that sticks
// out of its parent only counts for the part inside.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	tree := buildTree([]span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},  // overlaps a by 20
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // 20 outside
		{ID: 5, Parent: 2, Name: "grandchild", Start: 10, End: 50},
	})
	if got := tree.selfTime(1); got != 100-(60+10) {
		t.Errorf("self time = %d, want 30", got)
	}
	if got := tree.selfTime(2); got != 0 {
		t.Errorf("self time of a fully covered span = %d, want 0", got)
	}
	if got := tree.selfTime(5); got != 40 {
		t.Errorf("self time of a leaf = %d, want its duration 40", got)
	}
}

// goodSpans is one traced job whose numbers add up: a reconfig made of
// plan, apply and checkpoint, two concurrent store calls inside apply,
// each with a round trip and a server handler inside that.
func goodSpans() []span {
	return []span{
		{ID: 1, Name: spanIter, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: spanReconfig, Start: 100, End: 900},
		{ID: 3, Parent: 2, Name: spanPlan, Start: 100, End: 150},
		{ID: 4, Parent: 2, Name: spanApply, Start: 152, End: 700},
		{ID: 5, Parent: 2, Name: spanCkptSave, Start: 702, End: 899},
		{ID: 6, Parent: 4, Name: pfxClient + "batch_query", Start: 200, End: 400, Bytes: 600},
		{ID: 7, Parent: 4, Name: pfxClient + "query_into", Start: 300, End: 500, Bytes: 400},
		{ID: 8, Parent: 6, Name: spanRoundTrip, Start: 210, End: 390},
		{ID: 9, Parent: 7, Name: spanRoundTrip, Start: 310, End: 490},
		{ID: 10, Parent: 8, Name: pfxServer + "batch", Start: 250, End: 350},
		{ID: 11, Parent: 9, Name: pfxServer + "query", Start: 340, End: 440},
		{ID: 12, Parent: 4, Name: pfxClient + "upload", Start: 600, End: 650, Bytes: 1000},
	}
}

func TestReconcileAcceptsConsistentSpans(t *testing.T) {
	if bad := reconcile(goodSpans(), map[int32]int64{0: 1000}); len(bad) != 0 {
		t.Fatalf("consistent spans rejected: %v", bad)
	}
}

func TestReconcileRejectsBrokenSpans(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(s []span) []span
		pay    int64
		want   string
	}{
		{"phases leave a 12% gap", func(s []span) []span { s[4].Start = 800; return s }, 1000, "phases sum"},
		{"store op outside its apply", func(s []span) []span { s[11].End = 750; return s }, 1000, "outside its transform.apply"},
		{"client saw fewer bytes than the transformer fetched", func(s []span) []span { s[6].Bytes = 399; return s }, 1000, "payload bytes"},
		{"handlers busier than their round trips", func(s []span) []span { s[9].End = 900; s[10].End = 900; return s }, 1000, "exceed the round trips"},
	} {
		bad := reconcile(c.mutate(goodSpans()), map[int32]int64{0: c.pay})
		if len(bad) == 0 {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: violations %v do not mention %q", c.name, bad, c.want)
		}
	}
}

// The layers under an apply span partition its wall time exactly, the
// deepest active layer owning each instant.
func TestApplyLayersPartition(t *testing.T) {
	tree := buildTree(goodSpans())
	l := tree.applyLayers(4)
	// Servers cover [250,440) = 190. Round trips cover [210,490) = 280.
	// Client calls cover [200,500) and [600,650) = 350.
	want := applyLayers{server: 190, transport: 90, client: 70, ckptRead: 0, self: 548 - 350}
	if l != want {
		t.Errorf("layers = %+v, want %+v", l, want)
	}
	if sum := l.server + l.transport + l.client + l.ckptRead + l.self; sum != 548 {
		t.Errorf("layers sum to %d, want the span's 548", sum)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start("x", 0)
	tr.end(id)
	tr.setIter(3)
	ran := false
	if _, err := tr.phase("p", func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("phase on a nil tracer: ran=%v err=%v", ran, err)
	}
	if got := tr.snapshot(); got != nil {
		t.Fatalf("nil tracer has spans: %v", got)
	}
}

func TestTracerPhasesNest(t *testing.T) {
	tr := newTracer()
	tr.setIter(7)
	tr.phase("outer", func() error { //nolint:errcheck // fn cannot fail
		tr.run("inner", func() {
			if tr.current() == 0 {
				t.Error("no current phase inside a phase")
			}
		})
		return nil
	})
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Iter != 7 || spans[1].Name != "inner" {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if tr.current() != 0 {
		t.Error("current phase not restored")
	}
}
