package transform

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"

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
		if _, err := flaky[d].List(stagingRoot(job)); err == nil {
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
			if _, err := stores[d].List(modelRoot(job)); err != nil {
				t.Fatalf("workers %d: dev %d did not commit although nothing failed on it: %v", workers, d, err)
			}
		}
		verifyAgainstGolden(t, job, from, stores, golden)
	}
}
