package transform

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// flakyAccess injects failures into a store.Access: every failEvery-th
// operation returns an error.
type flakyAccess struct {
	inner store.Access
	count atomic.Int64
	// failEvery <= 0 disables injection.
	failEvery int64
}

func (f *flakyAccess) maybeFail(op string) error {
	if f.failEvery <= 0 {
		return nil
	}
	if f.count.Add(1)%f.failEvery == 0 {
		return fmt.Errorf("injected fault during %s", op)
	}
	return nil
}

func (f *flakyAccess) Query(path string, reg tensor.Region) (*tensor.Tensor, error) {
	if err := f.maybeFail("query"); err != nil {
		return nil, err
	}
	return f.inner.Query(path, reg)
}
func (f *flakyAccess) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	if err := f.maybeFail("queryinto"); err != nil {
		return 0, err
	}
	return f.inner.QueryInto(path, reg, dst, at)
}
func (f *flakyAccess) Upload(path string, t *tensor.Tensor) error {
	if err := f.maybeFail("upload"); err != nil {
		return err
	}
	return f.inner.Upload(path, t)
}
func (f *flakyAccess) UploadFrom(path string, dt tensor.DType, shape []int, r io.Reader) error {
	if err := f.maybeFail("uploadfrom"); err != nil {
		return err
	}
	return f.inner.UploadFrom(path, dt, shape, r)
}
func (f *flakyAccess) Delete(path string) error { return f.inner.Delete(path) }
func (f *flakyAccess) List(path string) ([]string, error) {
	return f.inner.List(path)
}
func (f *flakyAccess) Rename(src, dst string) error { return f.inner.Rename(src, dst) }

// TestApplyFaultInjectionPreservesOldState: when fetches fail mid-plan,
// Apply must report the error and leave the previous model state
// readable (no partial commit).
func TestApplyFaultInjectionPreservesOldState(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	golden := goldenState(from)

	for _, every := range []int64{3, 7, 13} {
		plain := localStores(alloc(4))
		if err := LoadPTC(job, from, plain, golden); err != nil {
			t.Fatal(err)
		}
		wrapped := map[string]*flakyAccess{}
		stores := localStores(alloc(4))
		for d, acc := range plain {
			fa := &flakyAccess{inner: acc, failEvery: every}
			wrapped[fmt.Sprint(d)] = fa
			stores[d] = fa
		}
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr := &Transformer{Job: job, Stores: stores, Parallelism: 4}
		if _, err := tr.Apply(plan); err == nil {
			t.Fatalf("failEvery=%d: Apply succeeded despite injected faults", every)
		}
		// Old state must be intact and fully readable.
		for _, d := range from.Devices {
			for _, s := range from.Place[d] {
				got, err := plain[d].Query(ModelPath(job, d, s.Tensor), nil)
				if err != nil {
					t.Fatalf("failEvery=%d: old state lost: %v", every, err)
				}
				if !got.Equal(golden[s.Tensor].Slice(s.Region)) {
					t.Fatalf("failEvery=%d: old state corrupted", every)
				}
			}
		}
		// Retrying with the faults cleared succeeds.
		for _, fa := range wrapped {
			fa.failEvery = 0
		}
		if _, err := tr.Apply(plan); err != nil {
			t.Fatalf("failEvery=%d: retry failed: %v", every, err)
		}
		verifyAgainstGolden(t, job, to, stores, golden)
	}
}

// TestApplyMidFailureCleansStaging: when a store error hits partway
// through Apply, the live model tree must be untouched and the staging
// root must be removed from every destination device (no partially
// staged state left behind).
func TestApplyMidFailureCleansStaging(t *testing.T) {
	m := model.GPTCustom(4, 16, 2, 64, 8)
	const job = "job0"
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, alloc(2))
	to := buildPTC(t, m, parallel.Config{TP: 4, PP: 1, DP: 1}, alloc(4))
	golden := goldenState(from)

	plain := localStores(alloc(4))
	if err := LoadPTC(job, from, plain, golden); err != nil {
		t.Fatal(err)
	}
	wrapped := map[int]*flakyAccess{}
	flaky := localStores(alloc(4))
	for d, acc := range plain {
		fa := &flakyAccess{inner: acc, failEvery: 5}
		wrapped[int(d)] = fa
		flaky[d] = fa
	}
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Transformer{Job: job, Stores: flaky, Parallelism: 4}
	if _, err := tr.Apply(plan); err == nil {
		t.Fatal("Apply succeeded despite injected faults")
	}
	for _, d := range to.Devices {
		// No staging root may remain anywhere.
		if _, err := flaky[d].List(StagingRoot(job)); err == nil {
			t.Fatalf("device %d still holds a staging tree after failed apply", d)
		}
	}
	// The live model tree is exactly the pre-apply state.
	verifyAgainstGolden(t, job, from, plain, golden)
	// A clean retry completes and commits.
	for _, fa := range wrapped {
		fa.failEvery = 0
	}
	if _, err := tr.Apply(plan); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	verifyAgainstGolden(t, job, to, flaky, golden)
}

// renameFails is a store whose staged tree cannot be swapped in.
type renameFails struct{ store.Access }

func (r renameFails) Rename(src, dst string) error {
	return fmt.Errorf("injected fault during rename of %s", src)
}

// A device that fails to commit does not hide the others: every
// destination is tried, the error names each one that failed, in one
// order whatever the schedule, and the departing devices keep the old
// state (a migrating job's only other copy) because not every
// destination committed.
func TestCommitTriesEveryDeviceAndReportsEachFailure(t *testing.T) {
	const job = "bcommit"
	m := model.GPTCustom(2, 16, 2, 64, 8)
	from := buildPTC(t, m, parallel.Config{TP: 2, PP: 1, DP: 1}, allocFrom(0, 2))
	to := buildPTC(t, m, parallel.Config{TP: 1, PP: 1, DP: 4}, allocFrom(2, 4))
	plan, err := core.GeneratePlan(from, to, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenState(from)
	for _, workers := range []int{1, 0, 16} {
		stores := localStores(alloc(6))
		if err := LoadPTC(job, from, stores, golden); err != nil {
			t.Fatal(err)
		}
		stores[3] = renameFails{stores[3]}
		stores[5] = renameFails{stores[5]}
		_, err := (&Transformer{Job: job, Stores: stores, Parallelism: workers}).Apply(plan)
		want := "transform: commit on dev 3: injected fault during rename of /job/bcommit/model.next\n" +
			"transform: commit on dev 5: injected fault during rename of /job/bcommit/model.next"
		if err == nil || err.Error() != want {
			t.Fatalf("workers %d: Apply returned\n%v\nwant\n%s", workers, err, want)
		}
		for _, d := range []cluster.DeviceID{2, 4} {
			if _, err := stores[d].List(ModelRoot(job)); err != nil {
				t.Fatalf("workers %d: dev %d did not commit although nothing failed on it: %v", workers, d, err)
			}
		}
		verifyAgainstGolden(t, job, from, stores, golden)
	}
}

// treeOps records, in the order they reach the stores, the calls an
// apply makes on whole trees: Rename, Delete and List.
type treeOps struct {
	mu  sync.Mutex
	ops []treeOp
}

type treeOp struct {
	dev cluster.DeviceID
	op  string
}

func (l *treeOps) add(dev cluster.DeviceID, op string) {
	l.mu.Lock()
	l.ops = append(l.ops, treeOp{dev, op})
	l.mu.Unlock()
}

// countingAccess is device dev's store, with its tree calls recorded.
type countingAccess struct {
	store.Access
	dev cluster.DeviceID
	log *treeOps
}

func (c countingAccess) Rename(src, dst string) error {
	c.log.add(c.dev, "rename")
	return c.Access.Rename(src, dst)
}

func (c countingAccess) Delete(path string) error {
	c.log.add(c.dev, "delete")
	return c.Access.Delete(path)
}

func (c countingAccess) List(path string) ([]string, error) {
	c.log.add(c.dev, "list")
	return c.Access.List(path)
}

// A commit is one Rename per destination that staged anything, and no
// List or Delete there: the rename replaces the live tree. The leaving
// devices each see one Delete, after every rename; a destination the
// plan assigns nothing sees no call at all.
func TestCommitIsOneRenamePerStagedDevice(t *testing.T) {
	const job = "bcount"
	from, to, plan, golden := migrateFixture(t)
	// The same move with device 4 in the allocation and nothing placed on
	// it.
	wide := core.NewPTC(to.Name, append(slices.Clone(to.Devices), 4))
	for _, meta := range to.Tensors {
		wide.AddTensor(meta)
	}
	for _, d := range to.Devices {
		wide.AssignAll([]cluster.DeviceID{d}, to.Place[d])
	}
	widePlan, err := core.GeneratePlan(from, wide, core.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name    string
		plan    *core.Plan
		devices int
	}{
		{"migrate", plan, 4},
		{"migrate with an unassigned destination", widePlan, 5},
	} {
		stores := localStores(alloc(sc.devices))
		if err := LoadPTC(job, from, stores, golden); err != nil {
			t.Fatal(err)
		}
		log := &treeOps{}
		for d, acc := range stores {
			stores[d] = countingAccess{Access: acc, dev: d, log: log}
		}
		if _, err := (&Transformer{Job: job, Stores: stores}).Apply(sc.plan); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		verifyAgainstGolden(t, job, to, stores, golden)
		got := map[treeOp]int{}
		lastRename, firstDelete := -1, len(log.ops)
		for i, op := range log.ops {
			got[op]++
			switch op.op {
			case "rename":
				lastRename = i
			case "delete":
				firstDelete = min(firstDelete, i)
			}
		}
		want := map[treeOp]int{{2, "rename"}: 1, {3, "rename"}: 1, {0, "delete"}: 1, {1, "delete"}: 1}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: the commit made the calls %v, want %v", sc.name, log.ops, want)
		}
		if firstDelete < lastRename {
			t.Fatalf("%s: a leaving device deleted its state before every destination committed: %v", sc.name, log.ops)
		}
	}
}

// pairFault fails the first read of each of two paths, and only once
// both are in flight, so an apply meets exactly two assignment failures
// before its cancellation can abandon either.
type pairFault struct {
	mu      sync.Mutex
	pending map[string]bool
	both    chan struct{}
}

func newPairFault(a, b string) *pairFault {
	return &pairFault{pending: map[string]bool{a: true, b: true}, both: make(chan struct{})}
}

type pairFaultStore struct {
	store.Access
	pf *pairFault
}

func (s pairFaultStore) QueryInto(path string, reg tensor.Region, dst *tensor.Tensor, at tensor.Region) (int64, error) {
	s.pf.mu.Lock()
	hit := s.pf.pending[path]
	if hit {
		delete(s.pf.pending, path)
		if len(s.pf.pending) == 0 {
			close(s.pf.both)
		}
	}
	s.pf.mu.Unlock()
	if !hit {
		return s.Access.QueryInto(path, reg, dst, at)
	}
	select {
	case <-s.pf.both:
	case <-time.After(10 * time.Second): // a serial loop never gets the second read going
	}
	return 0, errors.New("injected read fault")
}

// A failed plan reports every assignment error, sorted, joined, not the
// first one only. A destination's worker stops at its own first failure,
// so the two faults meet the fixture's two destinations, which both read
// the two tensors from device 0.
func TestApplyReportsEveryAssignmentFailure(t *testing.T) {
	const job = "twofail"
	from, _, plan, golden := migrateFixture(t)
	// Two tensors a destination reads from device 0.
	var paths []string
	for _, a := range plan.AllAssignments() {
		for _, f := range a.Fetch {
			if p := ModelPath(job, 0, a.Tensor); len(paths) < 2 && a.Device == 2 &&
				f.Src.Kind == core.FromDevice && f.Src.Device == 0 && (len(paths) == 0 || paths[0] != p) {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) != 2 {
		t.Fatalf("fixture reads %d tensors from device 0, want 2", len(paths))
	}
	stores := localStores(alloc(4))
	if err := LoadPTC(job, from, stores, golden); err != nil {
		t.Fatal(err)
	}
	stores[0] = pairFaultStore{Access: stores[0], pf: newPairFault(paths[0], paths[1])}
	_, err := (&Transformer{Job: job, Stores: stores}).Apply(plan)
	if err == nil {
		t.Fatal("apply survived two injected read faults")
	}
	got := err.Error()
	if !strings.HasPrefix(got, "transform: 2 assignments failed: ") || strings.Count(got, "injected read fault") != 2 {
		t.Fatalf("Apply reported %q, want both failures", got)
	}
	lines := strings.Split(strings.TrimPrefix(got, "transform: 2 assignments failed: "), "\n")
	if len(lines) != 2 || lines[0] >= lines[1] {
		t.Fatalf("Apply's failures are not two distinct sorted lines: %q", lines)
	}
}
