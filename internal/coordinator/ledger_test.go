package coordinator

import (
	"testing"

	"tenplex/internal/cluster"
)

func TestLedgerLeaseReleaseLifecycle(t *testing.T) {
	topo := cluster.OnPrem16()
	l := NewLedger(topo)
	if l.FreeCount() != 16 || l.Healthy() != 16 || l.LeasedCount() != 0 {
		t.Fatalf("fresh ledger: free=%d healthy=%d leased=%d", l.FreeCount(), l.Healthy(), l.LeasedCount())
	}
	if err := l.Lease("a", 0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Lease("b", 4, 5); err != nil {
		t.Fatal(err)
	}
	if l.FreeCount() != 10 || l.LeasedCount() != 6 {
		t.Fatalf("after leases: free=%d leased=%d", l.FreeCount(), l.LeasedCount())
	}
	if owner, ok := l.Owner(2); !ok || owner != "a" {
		t.Fatalf("owner of 2 = %q, %v", owner, ok)
	}
	if got := l.Allocation("a"); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("allocation of a = %v", got)
	}
	if err := l.Release("a", 1, 2); err != nil {
		t.Fatal(err)
	}
	if got := l.Allocation("a"); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("allocation of a after partial release = %v", got)
	}
	l.ReleaseAll("b")
	if l.FreeCount() != 14 {
		t.Fatalf("free after releases = %d", l.FreeCount())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerRejectsDoubleAllocation(t *testing.T) {
	l := NewLedger(cluster.OnPrem16())
	if err := l.Lease("a", 0, 1); err != nil {
		t.Fatal(err)
	}
	// Another job must not get a device a holds.
	if err := l.Lease("b", 1, 2); err == nil {
		t.Fatal("double allocation accepted")
	}
	// The failed lease must be atomic: device 2 stays free.
	if owner, ok := l.Owner(2); ok {
		t.Fatalf("device 2 leaked to %q by a rejected lease", owner)
	}
	// Re-leasing to the same job is also a double allocation.
	if err := l.Lease("a", 1); err == nil {
		t.Fatal("re-lease of a held device accepted")
	}
	// Duplicate devices within one request.
	if err := l.Lease("b", 3, 3); err == nil {
		t.Fatal("duplicate device in lease accepted")
	}
	if err := l.Lease("", 4); err == nil {
		t.Fatal("empty job name accepted")
	}
	if err := l.Lease("b", 99); err == nil {
		t.Fatal("unknown device accepted")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerFailures(t *testing.T) {
	l := NewLedger(cluster.OnPrem16())
	if err := l.Lease("a", 0, 1); err != nil {
		t.Fatal(err)
	}
	if owner := l.MarkFailed(1); owner != "a" {
		t.Fatalf("failed device owner = %q", owner)
	}
	if got := l.Allocation("a"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("allocation after failure = %v", got)
	}
	if owner := l.MarkFailed(5); owner != "" {
		t.Fatalf("free device failure reported owner %q", owner)
	}
	if l.Healthy() != 14 {
		t.Fatalf("healthy = %d", l.Healthy())
	}
	// Failed devices can never be leased again.
	if err := l.Lease("b", 1); err == nil {
		t.Fatal("leased a failed device")
	}
	if err := l.Release("a", 1); err == nil {
		t.Fatal("released a device the job no longer holds")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerValidateDetectsCorruption(t *testing.T) {
	l := NewLedger(cluster.OnPrem16())
	if err := l.Lease("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Lease("b", 1); err != nil {
		t.Fatal(err)
	}
	// Force the double-allocation the API refuses, and require Validate
	// to catch it.
	l.leases["b"] = append(l.leases["b"], 0)
	if err := l.Validate(); err == nil {
		t.Fatal("validate missed a double allocation")
	}
	l.leases["b"] = l.leases["b"][:1]
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Owner map disagreeing with the lease list.
	l.owner[1] = "a"
	if err := l.Validate(); err == nil {
		t.Fatal("validate missed an owner mismatch")
	}
	l.owner[1] = "b"
	// A failed device inside a lease (failure state lives in the
	// topology; marking it there without releasing the lease is the
	// corruption).
	l.topo.MarkFailed(0)
	if err := l.Validate(); err == nil {
		t.Fatal("validate missed a failed leased device")
	}
}

func TestLedgerPickCompact(t *testing.T) {
	topo := cluster.OnPrem16() // 4 workers x 4 devices
	l := NewLedger(topo)
	// A 4-device pick fills exactly one worker.
	devs, ok := l.Pick(4, nil)
	if !ok || len(devs) != 4 {
		t.Fatalf("pick(4) = %v, %v", devs, ok)
	}
	if w := (cluster.Allocation(devs)).Workers(topo); len(w) != 1 {
		t.Fatalf("pick(4) spans workers %v", w)
	}
	if err := l.Lease("a", devs...); err != nil {
		t.Fatal(err)
	}
	// Preference pulls the pick towards the job's current workers.
	if err := l.Release("a", devs[3]); err != nil {
		t.Fatal(err)
	}
	got, ok := l.Pick(1, l.Allocation("a"))
	if !ok || len(got) != 1 || got[0] != devs[3] {
		t.Fatalf("preferred pick = %v, want %v", got, devs[3])
	}
	// Too large a pick fails.
	if _, ok := l.Pick(17, nil); ok {
		t.Fatal("pick(17) of 16 devices succeeded")
	}
}

func TestCandidateSets(t *testing.T) {
	topo := cluster.OnPrem16()
	l := NewLedger(topo)
	// Fragment the pool: worker 0 fully busy, worker 1 half busy.
	if err := l.Lease("a", topo.Workers[0].Devices...); err != nil {
		t.Fatal(err)
	}
	if err := l.Lease("b", topo.Workers[1].Devices[:2]...); err != nil {
		t.Fatal(err)
	}

	sets := l.CandidateSets(4, 8, nil)
	if len(sets) == 0 {
		t.Fatal("no candidate sets for a satisfiable request")
	}
	// The first candidate is always the count-based compact pick.
	pick, ok := l.Pick(4, nil)
	if !ok {
		t.Fatal("Pick failed")
	}
	if len(sets[0]) != len(pick) {
		t.Fatalf("first candidate has %d devices, Pick %d", len(sets[0]), len(pick))
	}
	for i := range pick {
		if sets[0][i] != pick[i] {
			t.Fatalf("first candidate %v differs from the count-based pick %v", sets[0], pick)
		}
	}
	seen := map[string]bool{}
	free := map[cluster.DeviceID]bool{}
	for _, d := range freeIncremental(l) {
		free[d] = true
	}
	for _, set := range sets {
		if len(set) != 4 {
			t.Fatalf("candidate %v has %d devices, want 4", set, len(set))
		}
		dup := map[cluster.DeviceID]bool{}
		for _, d := range set {
			if !free[d] {
				t.Fatalf("candidate %v uses non-free device %d", set, d)
			}
			if dup[d] {
				t.Fatalf("candidate %v lists device %d twice", set, d)
			}
			dup[d] = true
		}
		sig := set.Signature()
		if seen[sig] {
			t.Fatalf("duplicate candidate %v", set)
		}
		seen[sig] = true
	}
	// Deterministic across calls.
	again := l.CandidateSets(4, 8, nil)
	if len(again) != len(sets) {
		t.Fatalf("candidate count changed: %d vs %d", len(again), len(sets))
	}
	for i := range sets {
		for j := range sets[i] {
			if sets[i][j] != again[i][j] {
				t.Fatal("CandidateSets not deterministic")
			}
		}
	}
	// k bounds the enumeration; infeasible sizes yield nothing.
	if got := l.CandidateSets(4, 1, nil); len(got) != 1 {
		t.Fatalf("k=1 returned %d candidates", len(got))
	}
	if got := l.CandidateSets(11, 4, nil); got != nil {
		t.Fatalf("11 devices from %d free returned %v", l.FreeCount(), got)
	}
	if got := l.CandidateSets(0, 4, nil); got != nil {
		t.Fatal("n=0 returned candidates")
	}
}

// TestCandidateSetsPreferWorkers: candidates honoring the prefer hint
// lead with the preferred worker's devices, like Pick does.
func TestCandidateSetsPreferWorkers(t *testing.T) {
	topo := cluster.OnPrem16()
	l := NewLedger(topo)
	prefer := cluster.Allocation{topo.Workers[2].Devices[0]}
	sets := l.CandidateSets(2, 8, prefer)
	if len(sets) == 0 {
		t.Fatal("no candidates")
	}
	if w := topo.WorkerOf(sets[0][0]); w != 2 {
		t.Fatalf("first candidate starts on worker %d, preferred worker 2", w)
	}
}

// TestLedgerMarkFailedIdempotent: flapping devices and spot deadlines
// deliver duplicate fail events; repeats must not disturb leases,
// suspicion counts, or the topology generation.
func TestLedgerMarkFailedIdempotent(t *testing.T) {
	topo := cluster.OnPrem16()
	l := NewLedger(topo)
	if err := l.Lease("job", 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if owner := l.MarkFailed(1); owner != "job" {
		t.Fatalf("first MarkFailed returned owner %q, want job", owner)
	}
	gen := topo.Generation()
	if l.Suspicion(1) != 1 {
		t.Fatalf("suspicion after first failure = %d, want 1", l.Suspicion(1))
	}
	for i := 0; i < 3; i++ {
		if owner := l.MarkFailed(1); owner != "" {
			t.Fatalf("repeat MarkFailed returned owner %q, want none", owner)
		}
	}
	if topo.Generation() != gen {
		t.Fatal("repeat MarkFailed bumped the topology generation")
	}
	if l.Suspicion(1) != 1 {
		t.Fatalf("repeat MarkFailed counted extra suspicion: %d", l.Suspicion(1))
	}
	if got := l.Allocation("job"); len(got) != 2 {
		t.Fatalf("job lease after duplicate failures = %v, want 2 devices", got)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}

	// Fail/recover cycles accumulate suspicion one per actual failure.
	l.MarkRecovered(1)
	if l.Failed(1) {
		t.Fatal("MarkRecovered did not revive the device")
	}
	if l.MarkFailed(1) != "" { // now free, so no owner
		t.Fatal("re-failed device reported an owner")
	}
	if l.Suspicion(1) != 2 {
		t.Fatalf("suspicion after second real failure = %d, want 2", l.Suspicion(1))
	}
}

// TestLedgerDraining: a draining device stays leased and healthy but
// leaves the free pool until it either recovers or actually dies.
func TestLedgerDraining(t *testing.T) {
	topo := cluster.OnPrem16()
	l := NewLedger(topo)
	free0 := l.FreeCount()
	l.SetDraining(5, true)
	if !l.draining[5] {
		t.Fatal("SetDraining(5, true) did not stick")
	}
	if l.FreeCount() != free0-1 {
		t.Fatalf("free count with one draining device = %d, want %d", l.FreeCount(), free0-1)
	}
	for _, d := range freeIncremental(l) {
		if d == 5 {
			t.Fatal("draining device offered in the free pool")
		}
	}
	// Draining devices can still be part of leases (they were leased
	// before the notice) and Healthy still counts them.
	if l.Healthy() != topo.NumDevices() {
		t.Fatalf("draining device dropped from Healthy(): %d", l.Healthy())
	}
	// Death clears the draining mark; recovery via SetDraining(false)
	// restores the free pool.
	l.MarkFailed(5)
	if l.draining[5] {
		t.Fatal("failed device still marked draining")
	}
	l.SetDraining(6, true)
	l.SetDraining(6, false)
	if l.FreeCount() != free0-1 { // only device 5 (failed) is gone
		t.Fatalf("free count after drain round trip = %d, want %d", l.FreeCount(), free0-1)
	}
}
