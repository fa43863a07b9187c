package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tenplex/internal/obs"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

func memAccess(t *testing.T) store.Access {
	t.Helper()
	acc := store.Local{FS: store.NewMemFS()}
	tt := tensor.New(tensor.Float32, 4)
	if err := acc.Upload("/x", tt); err != nil {
		t.Fatalf("seed upload: %v", err)
	}
	return acc
}

// With the zero plan (or while disarmed) the wrapper is a pass-through.
func TestChaosUnarmedPassThrough(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, StoreFaultRate: 0.99})
	acc := in.WrapAccess("job", "dev0", memAccess(t))
	for i := 0; i < 100; i++ {
		if _, err := acc.Query("/x", nil); err != nil {
			t.Fatalf("disarmed query %d failed: %v", i, err)
		}
	}
}

// sequence records the fault decisions of n distinct ops on an armed
// stream (uploads to distinct paths, so each has its own identity).
func sequence(in *Injector, job string, key uint64, acc store.Access, n int) []bool {
	in.BeginAttempt(job, key)
	defer in.EndAttempt(job)
	tt := tensor.New(tensor.Float32, 4)
	out := make([]bool, n)
	for i := range out {
		out[i] = acc.Upload(fmt.Sprintf("/p%d", i), tt) != nil
	}
	return out
}

func TestChaosDeterministicStreams(t *testing.T) {
	plan := Plan{Seed: 7, StoreFaultRate: 0.2}
	a := NewInjector(plan)
	b := NewInjector(plan)
	mem := memAccess(t)
	accA := a.WrapAccess("job", "dev0", mem)
	accB := b.WrapAccess("job", "dev0", memAccess(t))

	seqA := sequence(a, "job", 3, accA, 200)
	seqB := sequence(b, "job", 3, accB, 200)
	if fmt.Sprint(seqA) != fmt.Sprint(seqB) {
		t.Fatal("same (seed, job, key) produced different fault decisions")
	}
	var faults int
	for _, f := range seqA {
		if f {
			faults++
		}
	}
	if faults == 0 || faults == len(seqA) {
		t.Fatalf("fault rate 0.2 over 200 ops produced %d faults", faults)
	}

	// A different attempt key decides every op afresh.
	seqC := sequence(a, "job", 4, accA, 200)
	if fmt.Sprint(seqA) == fmt.Sprint(seqC) {
		t.Fatal("different attempt keys replayed the same decisions")
	}
	// Re-arming with the same key replays the attempt exactly.
	seqD := sequence(a, "job", 3, accA, 200)
	if fmt.Sprint(seqA) != fmt.Sprint(seqD) {
		t.Fatal("re-armed attempt did not replay its decisions")
	}
	// Replicas of the same path on differently-tagged stores fail
	// independently — a faulted read must be able to fall back to
	// another replica.
	accA2 := a.WrapAccess("job", "dev1", mem)
	seqE := sequence(a, "job", 3, accA2, 200)
	if fmt.Sprint(seqA) == fmt.Sprint(seqE) {
		t.Fatal("different store tags produced identical fault decisions")
	}
}

// An operation's fate belongs to the operation — (attempt seed, store
// tag, op, path) — not to the order concurrent ops happen to draw in.
// The same work set must produce the same per-op outcomes and the same
// attempt-level outcome at any parallelism.
func TestChaosAttemptOutcomeIndependentOfInterleaving(t *testing.T) {
	plan := Plan{Seed: 11, StoreFaultRate: 0.05}
	const ops = 60
	outcome := func(workers int) string {
		in := NewInjector(plan)
		acc := in.WrapAccess("job", "dev0", memAccess(t))
		in.BeginAttempt("job", 9)
		defer in.EndAttempt("job")
		tt := tensor.New(tensor.Float32, 4)
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			fate = make([]bool, ops)
		)
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					err := acc.Upload(fmt.Sprintf("/p%d", i), tt)
					mu.Lock()
					fate[i] = err != nil
					mu.Unlock()
				}
			}()
		}
		for i := 0; i < ops; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
		return fmt.Sprint(fate)
	}
	ref := outcome(1)
	for _, w := range []int{2, 4, 8} {
		if got := outcome(w); got != ref {
			t.Fatalf("per-op outcomes changed with %d workers:\n%s\n%s", w, got, ref)
		}
	}
}

func TestChaosErrorsWrapSentinel(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, StoreFaultRate: 1 - 1e-12})
	acc := in.WrapAccess("job", "dev0", memAccess(t))
	in.BeginAttempt("job", 0)
	defer in.EndAttempt("job")
	_, err := acc.Query("/x", nil)
	if err == nil {
		t.Fatal("fault rate ~1 did not inject")
	}
	if !errors.Is(err, Err) {
		t.Fatalf("injected error %v does not wrap chaos.Err", err)
	}
}

func TestChaosPlanValidate(t *testing.T) {
	bad := []Plan{
		{StoreFaultRate: 1.5},
		{Flaps: []DeviceFlap{{Device: 99, FailMin: 1, DownMin: 1}}},
		{Flaps: []DeviceFlap{{Device: 0, FailMin: 1, DownMin: 0}}},
		{Reclaims: []SpotReclaim{{Device: 0, NoticeMin: -1}}},
		{LinkDegrades: []LinkDegrade{{Worker: 0, StartMin: 0, DurationMin: 1, Factor: 0}}},
		{LinkDegrades: []LinkDegrade{{Worker: 9, StartMin: 0, DurationMin: 1, Factor: 0.5}}},
	}
	for i, p := range bad {
		if err := p.Validate(8, 2); err == nil {
			t.Errorf("plan %d validated but should not have", i)
		}
	}
	ok := Plan{
		Seed:           1,
		StoreFaultRate: 0.01,
		Flaps:          []DeviceFlap{{Device: 3, FailMin: 10, DownMin: 5, Cycles: 2, PeriodMin: 20}},
		Reclaims:       []SpotReclaim{{Device: 4, NoticeMin: 30, WindowMin: 2}},
		LinkDegrades:   []LinkDegrade{{Worker: 1, StartMin: 5, DurationMin: 10, Factor: 0.25}},
	}
	if err := ok.Validate(8, 2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// batchOnly is a store that takes batch reads and offers nothing else of
// what a wire store does.
type batchOnly struct{ store.Local }

func (b batchOnly) BatchQueryInto(ctx context.Context, entries []store.BatchEntry) (store.BatchStats, error) {
	return store.BatchStats{Entries: len(entries)}, nil
}

// store.Wrap exposes exactly the capabilities of the store it wraps,
// under either hook and under both, stacked as the coordinator stacks
// them (chaos inside, tracing outside). What this guards: the
// transformer picks its staging route, its cancellation and its copy
// accounting by type-asserting its stores, so a wrapper that hid a
// capability or claimed one would change what a traced or chaos-armed
// run does.
func TestWrapKeepsCapabilityTiers(t *testing.T) {
	in := NewInjector(Plan{Seed: 1})
	var scope obs.ScopeVar
	hooks := map[string]func(store.Access) store.Access{
		"chaos":   func(a store.Access) store.Access { return in.WrapAccess("job", "dev0", a) },
		"observe": func(a store.Access) store.Access { return store.Observe(a, "dev0", &scope) },
		"both": func(a store.Access) store.Access {
			return store.Observe(in.WrapAccess("job", "dev0", a), "dev0", &scope)
		},
	}
	inners := map[string]store.Access{
		"Local":      store.Local{FS: store.NewMemFS()},
		"batch-only": batchOnly{store.Local{FS: store.NewMemFS()}},
		"*Client":    &store.Client{Base: "http://127.0.0.1:1"},
	}
	is := func(a any, capability string) bool {
		var ok bool
		switch capability {
		case "BatchQuerier":
			_, ok = a.(store.BatchQuerier)
		case "BatchUploader":
			_, ok = a.(store.BatchUploader)
		case "Assembler":
			_, ok = a.(store.Assembler)
		case "Addressable":
			_, ok = a.(store.Addressable)
		case "Remote":
			_, ok = a.(store.Remote)
		case "RefUploader":
			_, ok = a.(store.RefUploader)
		}
		return ok
	}
	for hook, wrap := range hooks {
		for name, inner := range inners {
			w := wrap(inner)
			for _, c := range []string{"BatchQuerier", "BatchUploader", "Assembler", "Addressable", "Remote", "RefUploader"} {
				if is(w, c) != is(inner, c) {
					t.Errorf("%s over %s: %s is %v, the inner store's is %v", hook, name, c, is(w, c), is(inner, c))
				}
			}
			if ru, ok := inner.(store.RefUploader); ok && ru.UploadsByReference() != w.(store.RefUploader).UploadsByReference() {
				t.Errorf("%s over %s: UploadsByReference disagrees with the inner store's", hook, name)
			}
			if a, ok := inner.(store.Addressable); ok && w.(store.Addressable).Address() != a.Address() {
				t.Errorf("%s over %s: address %q, want %q", hook, name, w.(store.Addressable).Address(), a.Address())
			}
		}
	}
}

// A wire store wrapped by both hooks keeps its mid-transfer
// cancellation: the transformer type-asserts its stores for the
// context-aware calls, and a wrapper that hid them or dropped the
// context silently cost a traced or chaos-armed coordinator its cancel.
func TestWrappedClientKeepsCancellation(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // never answers
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hs.Close()
	defer close(release)

	in := NewInjector(Plan{Seed: 1})
	var scope obs.ScopeVar
	wrapped := store.Observe(in.WrapAccess("job", "dev0", &store.Client{Base: hs.URL, HTTP: hs.Client()}), "dev0", &scope)
	remote, ok := wrapped.(store.Remote)
	if !ok {
		t.Fatalf("observed + chaos-wrapped *store.Client is a %T: the wrappers hide the client's context-aware calls", wrapped)
	}
	payload := tensor.New(tensor.Float32, 1<<18) // 1 MiB: more than the socket buffers swallow
	for name, call := range map[string]func(ctx context.Context) error{
		"QueryIntoContext": func(ctx context.Context) error {
			_, err := remote.QueryIntoContext(ctx, "/x", nil, tensor.New(tensor.Float32, 4), nil)
			return err
		},
		"UploadContext": func(ctx context.Context) error { return remote.UploadContext(ctx, "/x", payload) },
		"UploadBatch": func(ctx context.Context) error {
			return remote.UploadBatch(ctx, []store.UploadItem{{Path: "/x", View: payload.FullView()}})
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		start := time.Now()
		err := call(ctx)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s returned %v, want context.Canceled", name, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s took %v to notice the cancel", name, d)
		}
	}
}

// A stall answers the caller's context: an apply canceled while an
// armed store stalls one of its operations gets the cancel back at once,
// not after the stall, as the REST transport's stall already does.
func TestChaosStallHonorsCancel(t *testing.T) {
	hs := httptest.NewServer(store.NewServer(store.NewMemFS()))
	defer hs.Close()
	in := NewInjector(Plan{Seed: 1, StragglerRate: 1, StragglerLatency: 3 * time.Second})
	remote := in.WrapAccess("job", "dev0", &store.Client{Base: hs.URL, HTTP: hs.Client()}).(store.Remote)
	in.BeginAttempt("job", 1)
	defer in.EndAttempt("job")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := remote.QueryIntoContext(ctx, "/x", nil, tensor.New(tensor.Float32, 4), nil)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a canceled operation waited out its %v stall: returned after %v", 3*time.Second, d)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled operation returned %v, want context.DeadlineExceeded", err)
	}
}

// The context-aware variants of a wrapped wire store draw their fate
// from the same (tag, op, paths) key as the plain calls: at any seed an
// operation is failed in both forms or in neither, so a fixed-seed
// trace does not depend on which form the transformer happened to call.
// A batched upload has the one form, and one fate for the whole batch,
// drawn from the paths it writes: the same batch draws it again.
func TestContextVariantsDrawTheSameFate(t *testing.T) {
	hs := httptest.NewServer(store.NewServer(store.NewMemFS()))
	defer hs.Close()
	client := &store.Client{Base: hs.URL, HTTP: hs.Client()}
	src := tensor.New(tensor.Float32, 4, 4)
	if err := client.Upload("/t", src); err != nil {
		t.Fatal(err)
	}
	reg := tensor.Region{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 4}}
	batch := []store.UploadItem{{Path: "/b/0", View: src.FullView()}, {Path: "/b/1", View: src.View(reg)}}
	ctx := context.Background()
	injected, clean := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		in := NewInjector(Plan{Seed: seed, StoreFaultRate: 0.5})
		f := in.WrapAccess("job", "dev0", client).(store.Remote)
		in.BeginAttempt("job", uint64(seed))
		pairs := map[string][2]func() error{
			"query": {
				func() error { _, err := f.Query("/t", reg); return err },
				func() error { _, err := f.QueryContext(ctx, "/t", reg); return err }},
			"queryinto": {
				func() error { _, err := f.QueryInto("/t", reg, tensor.New(tensor.Float32, 2, 4), nil); return err },
				func() error {
					_, err := f.QueryIntoContext(ctx, "/t", reg, tensor.New(tensor.Float32, 2, 4), nil)
					return err
				}},
			"upload": {
				func() error { return f.Upload("/u", src) },
				func() error { return f.UploadContext(ctx, "/u", src) }},
			"uploadfrom": {
				func() error { return f.UploadFrom("/v", src.DType(), src.Shape(), bytes.NewReader(src.Data())) },
				func() error {
					return f.UploadFromContext(ctx, "/v", src.DType(), src.Shape(), bytes.NewReader(src.Data()))
				}},
			"uploadbatch": {
				func() error { return f.UploadBatch(ctx, batch) },
				func() error { return f.UploadBatch(ctx, batch) }},
			"list": {
				func() error { _, err := f.List("/"); return err },
				func() error { _, err := f.ListContext(ctx, "/"); return err }},
			"rename": {
				func() error { return f.Rename("/absent", "/gone") },
				func() error { return f.RenameContext(ctx, "/absent", "/gone") }},
			"delete": {
				func() error { return f.Delete("/absent") },
				func() error { return f.DeleteContext(ctx, "/absent") }},
		}
		for op, pair := range pairs {
			plain, withCtx := errors.Is(pair[0](), Err), errors.Is(pair[1](), Err)
			if plain != withCtx {
				t.Fatalf("seed %d: %s injected=%v but its context variant injected=%v", seed, op, plain, withCtx)
			}
			if plain {
				injected++
			} else {
				clean++
			}
		}
		in.EndAttempt("job")
	}
	if injected == 0 || clean == 0 {
		t.Fatalf("%d injected and %d clean operations; want both", injected, clean)
	}
}
