package coordinator

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tenplex/internal/cluster"
)

// The explorer drives the decision core through every interleaving of a
// small world's inputs, to a fixed depth, the way the wall driver feeds
// it: arrivals, scale requests, device failures and recoveries, cancels,
// and the outcome of each job's oldest command — landing, or a commit
// aborting late — in any order the data plane could produce, with a
// completion stepped only when awaits allows it, as any legal driver
// must. It checks the soundness of each job's workflow net (Hierarchical
// Decomposition of Separable Workflow-Nets): at every state the ledger
// and lease invariants hold, and an idle chain has left the runtime where
// the core decided; from every state each job has the option to
// complete; a job that has ended has completed properly, leaving nothing
// behind; and no transition is dead.

// exploreDepth is how many inputs deep the explorer goes: deep enough for
// a change to be planned over another that then aborts late (arrive, the
// deploy lands, scale, the scale-out aborts, the shrink commits).
const exploreDepth, exploreDepthShort = 5, 4

// move is one input the explorer can choose.
type move struct {
	kind string // arrive, scale, fail, recover, cancel, ok, abort, due
	job  string
}

func (m move) String() string { return m.kind + "(" + m.job + ")" }

// exploreSpecs is the small world: on 8 devices in two workers, an
// elastic job, a rigid one, and a small rigid one.
func exploreSpecs() []JobSpec {
	return []JobSpec{
		{Name: "a", Model: tinyGPT(), DurationMin: 10, GPUs: 2, MinGPUs: 2, MaxGPUs: 4, Seed: 1},
		{Name: "b", Model: tinyGPT(), DurationMin: 10, GPUs: 4, Seed: 2},
		{Name: "c", Model: tinyGPT(), DurationMin: 10, GPUs: 2, Seed: 3},
	}
}

var exploreOpts = Options{Mode: ModeWall, Recovery: RecoveryPolicy{MaxAttempts: 2}}

// world is one state, reached by replaying a path into a fresh core.
type world struct {
	d       *driver
	f       *fakeExec
	arrived map[string]bool
	seen    int // timeline entries already noted
}

// apply takes one input through the core, as the wall driver would.
func (w *world) apply(m move) error {
	s := w.d.s
	var err error
	switch m.kind {
	case "arrive":
		w.arrived[m.job] = true
		err = w.d.step(event{time: s.now, kind: evArrival, job: m.job})
	case "scale":
		gpus := 4
		if len(s.jobs[m.job].alloc) > 2 {
			gpus = 2
		}
		err = w.d.step(event{time: s.now, kind: evScale, job: m.job, gpus: gpus})
	case "fail":
		err = w.d.step(event{time: s.now, kind: evFailure, dev: s.jobs[m.job].alloc[0]})
	case "recover":
		err = w.d.step(event{time: s.now, kind: evDevRecover, dev: w.failed()[0]})
	case "cancel":
		err = w.d.step(event{time: s.now, kind: evCancel, job: m.job})
	case "ok", "abort":
		_ = w.f.finish(m.job, m.kind == "abort") // a fatal outcome is the receive's error
		err = w.d.receive()
	case "due":
		e, _ := s.pop()
		err = w.d.step(e)
	}
	for job := range w.f.chains {
		w.f.releases(job)
	}
	if IsClientError(err) {
		return nil // a refused request changes nothing
	}
	return err
}

func (w *world) failed() []cluster.DeviceID {
	var out []cluster.DeviceID
	for _, d := range w.d.s.topo.Devices {
		if w.d.s.ledger.Failed(d.ID) {
			out = append(out, d.ID)
		}
	}
	return out
}

// moves lists the inputs the world can take next.
func (w *world) moves() []move {
	s := w.d.s
	var out []move
	for _, name := range s.order {
		j := s.jobs[name]
		switch {
		case !w.arrived[name]:
			out = append(out, move{"arrive", name})
		case j.state == jobRunning:
			out = append(out, move{"scale", name}, move{"fail", name}, move{"cancel", name})
		case j.state == jobQueued:
			out = append(out, move{"cancel", name})
		}
		if chain := w.f.chains[name]; len(chain) > 0 {
			out = append(out, move{"ok", name})
			if chain[0].kind == cmdCommit {
				out = append(out, move{"abort", name})
			}
		}
	}
	if len(w.failed()) > 0 {
		out = append(out, move{"recover", ""})
	}
	if e, ok := s.pop(); ok {
		s.pushAt(e)
		if !s.awaits(e) {
			out = append(out, move{"due", e.job})
		}
	}
	return out
}

// key is the world's state, up to what the future cannot tell apart:
// clocks, versions and accounting are left out.
func (w *world) key() string {
	s := w.d.s
	var b strings.Builder
	for _, name := range s.order {
		j := s.jobs[name]
		fmt.Fprintf(&b, "%s %v %v %v %v i%d d%v|", name, w.arrived[name], j.state, j.alloc, j.cfg, j.inflight, j.deployed)
		if h := w.f.held[name]; h != nil {
			fmt.Fprintf(&b, "held %v %v|", h.alloc, j.decided == h.rt.PTC)
		}
		for _, c := range w.f.chains[name] {
			fmt.Fprintf(&b, "cmd %d", c.kind)
			if c.p != nil {
				fmt.Fprintf(&b, " %v", c.p.ch.Alloc)
			}
			b.WriteString(";")
		}
	}
	heap := slices.Clone(s.evq)
	slices.SortFunc(heap, func(x, y event) int {
		return cmp.Or(cmp.Compare(x.time, y.time), cmp.Compare(x.seq, y.seq))
	})
	for _, e := range heap {
		if j := s.jobs[e.job]; e.kind != evComplete || (j.state == jobRunning && j.ver == e.ver) {
			fmt.Fprintf(&b, "ev %d %s;", e.kind, e.job)
		}
	}
	fmt.Fprintf(&b, "failed %v queue %v", w.failed(), s.queue)
	return b.String()
}

// explorer searches the world's states depth-first, replaying each path
// into a fresh core; states already expanded are not expanded again.
type explorer struct {
	t        testing.TB
	depth    int
	expanded map[string]int // state -> the most inputs left when it was expanded
	states   int
	fired    map[string]map[string]bool // job -> timeline kinds it reached
	taken    map[string]bool            // move kinds taken
	// violation is the first property that failed, with the path to it.
	violation string
}

func newExplorer(t testing.TB, depth int) *explorer {
	return &explorer{t: t, depth: depth, expanded: map[string]int{},
		fired: map[string]map[string]bool{}, taken: map[string]bool{}}
}

func (x *explorer) fail(property string, path []move, format string, args ...any) {
	if x.violation == "" {
		x.violation = fmt.Sprintf("%s violated after %v: %s", property, path, fmt.Sprintf(format, args...))
	}
}

// replay builds the world a path leads to.
func (x *explorer) replay(path []move) (*world, error) {
	d, f := newFakeDriver(x.t, exploreOpts, exploreSpecs()...)
	w := &world{d: d, f: f, arrived: map[string]bool{}}
	for _, m := range path {
		if err := x.take(w, m); err != nil {
			return w, err
		}
	}
	return w, nil
}

// take applies m and notes what it fired.
func (x *explorer) take(w *world, m move) error {
	err := w.apply(m)
	x.taken[m.kind] = true
	for _, e := range w.d.s.timeline[w.seen:] {
		if e.Job != "" {
			if x.fired[e.Job] == nil {
				x.fired[e.Job] = map[string]bool{}
			}
			x.fired[e.Job][e.Kind] = true
		}
	}
	w.seen = len(w.d.s.timeline)
	return err
}

// check is what must hold at every state: the core's ledger and lease
// invariants, no lease held by a job that is not running, and — for a
// running job whose chain is idle, every outcome delivered — a runtime on
// exactly the decided allocation.
func (x *explorer) check(w *world, path []move) bool {
	s := w.d.s
	if err := s.checkInvariants(); err != nil {
		x.fail("ledger/lease invariant", path, "%v", err)
		return false
	}
	for _, name := range s.order {
		j := s.jobs[name]
		if j.state != jobRunning && len(s.ledger.Allocation(name)) > 0 {
			x.fail("ledger/lease invariant", path, "%s is %s and holds a lease", name, j.state)
			return false
		}
		if j.state == jobRunning && len(w.f.chains[name]) == 0 {
			if err := w.f.audit(name, j.alloc); err != nil {
				x.fail("ledger/lease invariant", path, "idle runtime: %v", err)
				return false
			}
		}
	}
	return true
}

// explore expands the state path leads to.
func (x *explorer) explore(path []move) {
	if x.violation != "" {
		return
	}
	w, err := x.replay(path)
	if err != nil {
		x.fail("option to complete", path, "the core failed: %v", err)
		return
	}
	if !x.check(w, path) {
		return
	}
	key, budget := w.key(), x.depth-len(path)
	if b, ok := x.expanded[key]; ok && b >= budget {
		return
	}
	x.expanded[key] = budget
	x.states++
	moves := w.moves()
	if len(path) == x.depth || len(moves) == 0 {
		x.complete(w, path)
		return
	}
	for _, m := range moves {
		x.explore(append(slices.Clip(path), m))
	}
}

// complete drives the world to its end — every job arrived, every device
// back, every command landing, every completion due — and checks that
// every job got there and left nothing behind. A leaf that completes
// gives every state on its path the option to complete.
func (x *explorer) complete(w *world, path []move) {
	s := w.d.s
	for n := 0; ; n++ {
		if n == 1000 {
			x.fail("option to complete", path, "no end after %d inputs", n)
			return
		}
		moves := w.moves()
		if len(w.failed()) > 0 {
			moves = append(moves, move{"recover", ""})
		}
		i := slices.IndexFunc(moves, func(m move) bool { return m.kind == "arrive" || m.kind == "recover" })
		if i < 0 {
			i = slices.IndexFunc(moves, func(m move) bool { return m.kind == "ok" || m.kind == "due" })
		}
		if i < 0 {
			break
		}
		if err := x.take(w, moves[i]); err != nil {
			x.fail("option to complete", append(slices.Clip(path), moves[i]), "the core failed: %v", err)
			return
		}
	}
	if err := w.d.settle(); err != nil {
		x.fail("option to complete", path, "settle: %v", err)
		return
	}
	for _, name := range s.order {
		if st := s.jobs[name].state; st == jobQueued || st == jobRunning {
			x.fail("option to complete", path, "job %s is still %s with nothing left to happen", name, st)
			return
		}
	}
	if err := properlyComplete(w.d, w.f); err != nil {
		x.fail("proper completion", path, "%v", err)
	}
}

// deadTransitions lists, per job, the transitions of its net that never
// fired anywhere in the search, and the inputs never taken.
func (x *explorer) deadTransitions() []string {
	var dead []string
	for _, spec := range exploreSpecs() {
		for _, kind := range []string{EvSubmit, EvAdmit, EvScaleOut, EvScaleIn, EvRecover, EvRequeue, EvCancel, EvComplete} {
			if !x.fired[spec.Name][kind] {
				dead = append(dead, spec.Name+"/"+kind)
			}
		}
	}
	for _, kind := range []string{"arrive", "scale", "fail", "recover", "cancel", "ok", "abort", "due"} {
		if !x.taken[kind] {
			dead = append(dead, "input "+kind)
		}
	}
	return dead
}

// TestExploreDecisionCore runs the explorer at its committed depth (a
// smaller one under -short) and fails on the first property violated.
func TestExploreDecisionCore(t *testing.T) {
	depth := exploreDepth
	if testing.Short() {
		depth = exploreDepthShort
	}
	start := time.Now()
	x := newExplorer(t, depth)
	x.explore(nil)
	t.Logf("depth %d: %d states explored in %v", depth, x.states, time.Since(start).Round(time.Millisecond))
	if x.violation != "" {
		t.Fatal(x.violation)
	}
	if dead := x.deadTransitions(); len(dead) > 0 {
		t.Fatalf("no dead transitions violated: %v never fired", dead)
	}
}
