package store

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tenplex/internal/obs"
)

// TestClientStatsAndMetricsRaceFree is the -race regression for the
// client's counters: many goroutines share one Client whose reads are
// retried through transient server faults, all bumping Stats and the
// mirrored obs registry concurrently. The snapshot taken afterwards must
// be internally consistent and agree with the registry — any torn read
// or missed increment trips the race detector or the equality checks.
func TestClientStatsAndMetricsRaceFree(t *testing.T) {
	fs := NewMemFS()
	if err := fs.PutTensor("/w", seqTensor(4, 4)); err != nil {
		t.Fatal(err)
	}
	inner := NewServer(fs)
	var mu sync.Mutex
	seen := 0
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen++
		fault := seen%3 == 0
		mu.Unlock()
		if fault { // every third request fails so retries actually fire
			http.Error(w, "transient", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()

	reg := obs.NewRegistry()
	c := &Client{Base: hs.URL, HTTP: hs.Client(), Metrics: reg,
		Retry: &RetryPolicy{MaxAttempts: 32, Sleep: func(time.Duration) {}}}
	const goroutines, reads = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				if _, err := c.Query("/w", nil); err != nil {
					t.Errorf("retried query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	st := c.Stats.Snapshot()
	if st.Attempts != goroutines*reads+st.Retries {
		t.Fatalf("attempts = %d, want %d reads + %d retries", st.Attempts, goroutines*reads, st.Retries)
	}
	if st.Retries == 0 {
		t.Fatal("no retries fired; the contended path went untested")
	}
	rows := reg.Snapshot()
	check := func(name string, want int64) {
		t.Helper()
		row, ok := obs.Get(rows, name)
		if want == 0 {
			if ok && row.Int != 0 {
				t.Fatalf("%s = %d, want absent or 0", name, row.Int)
			}
			return
		}
		if !ok || row.Int != want {
			t.Fatalf("%s = %+v (ok=%v), want %d", name, row, ok, want)
		}
	}
	check("store.client.attempts", st.Attempts)
	check("store.client.retries", st.Retries)
	check("store.client.exhausted", st.Exhausted)
}

// TestObserveRecordsPerOpSpans: the Observe wrapper parents one
// datapath span per store operation under the chain's current task
// scope, tags it with op/path/store and payload bytes, and surfaces
// errors as attrs instead of swallowing them.
func TestObserveRecordsPerOpSpans(t *testing.T) {
	fs := NewMemFS()
	if err := fs.PutTensor("/w", seqTensor(2, 3)); err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{Det: true, Level: obs.LevelDatapath})
	var scope obs.ScopeVar
	acc := Observe(Local{FS: fs}, "dev3", &scope)

	// No scope installed yet: operations must pass through unrecorded.
	if _, err := acc.Query("/w", nil); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Export().Spans); n != 0 {
		t.Fatalf("unscoped op recorded %d spans", n)
	}

	scope.Set(obs.TaskCtx{T: tr, Parent: 42, Job: "job-7", TMin: 9})
	if _, err := acc.Query("/w", nil); err != nil {
		t.Fatal(err)
	}
	if err := acc.Upload("/u", seqTensor(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := acc.Rename("/u", "/v"); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.List("/"); err != nil {
		t.Fatal(err)
	}
	if err := acc.Delete("/v"); err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Query("/missing", nil); err == nil {
		t.Fatal("query for missing path succeeded")
	}

	spans := tr.Export().Spans
	if len(spans) != 6 {
		t.Fatalf("recorded %d spans, want 6", len(spans))
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
		if s.Cat != obs.CatDatapath || s.Parent != 42 || s.Job != "job-7" || s.TMin != 9 {
			t.Fatalf("span misattributed: %+v", s)
		}
		if s.Attrs["store"] != "dev3" {
			t.Fatalf("span lacks store tag: %+v", s)
		}
	}
	if byName["store.query"] != 2 || byName["store.upload"] != 1 ||
		byName["store.rename"] != 1 || byName["store.list"] != 1 ||
		byName["store.delete"] != 1 {
		t.Fatalf("span names off: %v", byName)
	}
	var sawErr, sawBytes bool
	for _, s := range spans {
		if _, ok := s.Attrs["err"]; ok && s.Name == "store.query" {
			sawErr = true
		}
		if b, ok := s.Attrs["bytes"]; ok && s.Name == "store.query" && b != nil {
			sawBytes = true
		}
	}
	if !sawErr {
		t.Fatal("failed query span carries no err attr")
	}
	if !sawBytes {
		t.Fatal("successful query span carries no bytes attr")
	}

	// Observe must preserve the reference-upload contract Local makes.
	if ru, ok := acc.(RefUploader); !ok || !ru.UploadsByReference() {
		t.Fatal("Observe dropped UploadsByReference")
	}

	// Dropping to phases level turns the wrapper back into a passthrough.
	shallow := obs.New(obs.Options{Det: true, Level: obs.LevelPhases})
	scope.Set(obs.TaskCtx{T: shallow, Parent: 1, Job: "job-7"})
	if _, err := acc.Query("/w", nil); err != nil {
		t.Fatal(err)
	}
	if n := len(shallow.Export().Spans); n != 0 {
		t.Fatalf("phases-level scope recorded %d datapath spans", n)
	}
}

// Below a deep scope an observed store's operation costs what the store's
// own does, allocation for allocation: a span that is not recorded is
// free, so Observe may stay installed while the tracer's level drops.
func TestObserveShallowScopeAllocatesNothing(t *testing.T) {
	fs := NewMemFS()
	if err := fs.PutTensor("/w", seqTensor(4, 4)); err != nil {
		t.Fatal(err)
	}
	local := Local{FS: fs}
	var scope obs.ScopeVar
	scope.Set(obs.TaskCtx{T: obs.New(obs.Options{Level: obs.LevelPhases}), Parent: 1, Job: "job-7"})
	dst := seqTensor(4, 4)
	allocs := func(acc Access) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := acc.QueryInto("/w", nil, dst, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if base, got := allocs(local), allocs(Observe(local, "dev0", &scope)); got != base {
		t.Fatalf("an unrecorded span costs %v allocations, the bare store %v", got, base)
	}
}

// An observed wire store still takes batches (an observed Local store
// still does not), and every batch is counted in the tracer's registry —
// requests, payload bytes, latency — whatever the tracer's level, with a
// store.upload_batch span on top when it is deep.
func TestObserveForwardsAndCountsUploadBatch(t *testing.T) {
	n := newUploadNode(t, nil)
	var scope obs.ScopeVar
	if _, ok := Observe(Local{FS: NewMemFS()}, "dev0", &scope).(BatchUploader); ok {
		t.Fatal("an observed Local store claims to take batches")
	}
	acc, ok := Observe(n.client(nil), "dev3", &scope).(BatchUploader)
	if !ok {
		t.Fatal("Observe hid the wire store's BatchUploader")
	}
	items := uploadSet(seqTensor(8, 6))
	var payload int64
	for _, it := range items {
		payload += int64(it.View.NumBytes())
	}
	ctx := context.Background()
	if err := acc.UploadBatch(ctx, items); err != nil { // no scope yet: passes through
		t.Fatal(err)
	}
	shallow := obs.New(obs.Options{Level: obs.LevelPhases})
	scope.Set(obs.TaskCtx{T: shallow, Parent: 1, Job: "job-7"})
	if err := acc.UploadBatch(ctx, items); err != nil {
		t.Fatal(err)
	}
	deep := obs.New(obs.Options{Level: obs.LevelDatapath})
	scope.Set(obs.TaskCtx{T: deep, Parent: 42, Job: "job-7", TMin: 9})
	for i := 0; i < 2; i++ {
		if err := acc.UploadBatch(ctx, items); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.requests("/upload-batch"); got != 4 {
		t.Fatalf("%d /upload-batch requests, want 4", got)
	}
	checkUploadSet(t, n.srv.FS, items)
	for tr, batches := range map[*obs.Tracer]int64{shallow: 1, deep: 2} {
		rows := tr.Export().Metrics
		count, _ := obs.Get(rows, "store.client.upload_batch.count")
		bytes, _ := obs.Get(rows, "store.client.upload_batch.bytes")
		lat, _ := obs.Get(rows, "store.client.upload_batch_ns")
		if count.Int != batches || bytes.Int != batches*payload || lat.Count != batches || lat.Sum <= 0 {
			t.Fatalf("registry after %d batches of %d bytes: count %+v, bytes %+v, latency %+v", batches, payload, count, bytes, lat)
		}
	}
	if n := len(shallow.Export().Spans); n != 0 {
		t.Fatalf("phases-level scope recorded %d datapath spans", n)
	}
	spans := deep.Export().Spans
	if len(spans) != 2 {
		t.Fatalf("deep scope recorded %d spans, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Name != "store.upload_batch" || s.Cat != obs.CatDatapath || s.Parent != 42 || s.Job != "job-7" ||
			s.Attrs["store"] != "dev3" || s.Attrs["items"] != int64(len(items)) || s.Attrs["bytes"] != payload || s.WallNs <= 0 {
			t.Fatalf("span misattributed: %+v", s)
		}
	}
}
