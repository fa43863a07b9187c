package coordinator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tenplex/internal/cluster"
)

// The incremental candidate path must be indistinguishable from the
// retained from-scratch enumeration: same candidates, same order, same
// bytes — over arbitrary interleavings of every mutation the
// coordinator performs (lease, release, fail-stop, recovery,
// spot-drain, quarantine-style permanent failures). The property suite
// drives both paths through seeded random event sequences on flat and
// hierarchical topologies and compares after every step.

// sigs flattens candidate allocations to signatures for comparison.
func sigs(sets []cluster.Allocation) []string {
	out := make([]string, len(sets))
	for i, a := range sets {
		out[i] = a.Signature()
	}
	return out
}

func equalSigs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freeIncremental flattens the ledger's per-worker free lists, which
// are in device ID order on every topology constructor.
func freeIncremental(l *Ledger) []cluster.DeviceID {
	l.sync()
	var out []cluster.DeviceID
	for _, devs := range l.freeByWorker {
		out = append(out, devs...)
	}
	return out
}

// checkAgainstScratch asserts the incremental ledger state matches the
// from-scratch derivations for a spread of query shapes.
func checkAgainstScratch(t *testing.T, l *Ledger, rng *rand.Rand, step int) {
	t.Helper()
	scratchFree := l.freeScratch()
	free := freeIncremental(l)
	if len(free) != len(scratchFree) {
		t.Fatalf("step %d: free lists hold %d devices, scratch %d", step, len(free), len(scratchFree))
	}
	for i := range free {
		if free[i] != scratchFree[i] {
			t.Fatalf("step %d: free lists [%d] = %d, scratch %d", step, i, free[i], scratchFree[i])
		}
	}
	if got := l.FreeCount(); got != len(scratchFree) {
		t.Fatalf("step %d: FreeCount() = %d, scratch %d", step, got, len(scratchFree))
	}
	n := 1 + rng.Intn(12)
	k := 1 + rng.Intn(6)
	var prefer cluster.Allocation
	if len(scratchFree) > 0 && rng.Intn(2) == 0 {
		prefer = cluster.Allocation{scratchFree[rng.Intn(len(scratchFree))]}
	}
	inc := l.CandidateSets(n, k, prefer)
	ref := l.candidateSetsScratch(n, k, prefer)
	if !equalSigs(sigs(inc), sigs(ref)) {
		t.Fatalf("step %d: CandidateSets(%d, %d, %v) diverged\nincremental: %v\nscratch:     %v",
			step, n, k, prefer, sigs(inc), sigs(ref))
	}
	if pick, ok := l.Pick(n, prefer); ok {
		if len(ref) == 0 || cluster.Allocation(pick).Signature() != ref[0].Signature() {
			t.Fatalf("step %d: Pick(%d) = %v disagrees with first scratch candidate", step, n, pick)
		}
	}
}

// driveLedger applies a seeded random mutation sequence and calls check
// with the jobs holding a lease after every step.
func driveLedger(t *testing.T, topo *cluster.Topology, seed int64, steps int,
	check func(l *Ledger, rng *rand.Rand, active []string, step int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := NewLedger(topo)
	nextJob := 0
	active := []string{}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // lease a new job
			n := 1 + rng.Intn(8)
			if devs, ok := l.Pick(n, nil); ok {
				job := fmt.Sprintf("job-%d", nextJob)
				nextJob++
				if err := l.Lease(job, devs...); err != nil {
					t.Fatalf("step %d: lease: %v", step, err)
				}
				active = append(active, job)
			}
		case op < 6: // release a job entirely
			if len(active) > 0 {
				i := rng.Intn(len(active))
				l.ReleaseAll(active[i])
				active = append(active[:i], active[i+1:]...)
			}
		case op < 7: // partial release
			if len(active) > 0 {
				job := active[rng.Intn(len(active))]
				if own := l.Allocation(job); len(own) > 1 {
					if err := l.Release(job, own[rng.Intn(len(own))]); err != nil {
						t.Fatalf("step %d: release: %v", step, err)
					}
				}
			}
		case op < 8: // fail-stop a random device (owned or free)
			l.MarkFailed(cluster.DeviceID(rng.Intn(topo.NumDevices())))
		case op < 9: // recover a random device (no-op when healthy)
			l.MarkRecovered(cluster.DeviceID(rng.Intn(topo.NumDevices())))
		default: // spot-drain toggle
			l.SetDraining(cluster.DeviceID(rng.Intn(topo.NumDevices())), rng.Intn(2) == 0)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(l, rng, active, step)
	}
}

// TestCandidateSetsIncrementalMatchesScratch is the property suite the
// tentpole's acceptance criteria name: 300+ seeded event sequences,
// byte-identical candidate enumeration on flat and hierarchical
// topologies.
func TestCandidateSetsIncrementalMatchesScratch(t *testing.T) {
	seqs := 320
	steps := 40
	if testing.Short() {
		seqs, steps = 60, 25
	}
	for seed := 0; seed < seqs; seed++ {
		seed := seed
		var topo *cluster.Topology
		switch seed % 3 {
		case 0:
			topo = cluster.Cloud(32)
		case 1:
			topo = cluster.OnPrem16()
		default:
			topo = cluster.Datacenter(128)
		}
		driveLedger(t, topo, int64(seed)*7919+1, steps, func(l *Ledger, rng *rand.Rand, _ []string, step int) {
			checkAgainstScratch(t, l, rng, step)
		})
	}
}

// TestRepackMatchesPackCompact pins defragmentation's pack to its
// reference: after every step of a mutation sequence, for every job and
// every n, Repack returns exactly packCompact over the job's own devices
// plus the free pool, and the number of workers that pack spans. A job
// keeps its draining devices, which is what a release-and-Pick would
// get wrong, so the suite counts the checks that had one. Repack must
// also leave the count buckets as it found them.
func TestRepackMatchesPackCompact(t *testing.T) {
	seqs, steps := 40, 30
	if testing.Short() {
		seqs, steps = 10, 20
	}
	ownDraining := 0
	for seed := 0; seed < seqs; seed++ {
		topo := cluster.Cloud(32)
		if seed%2 == 1 {
			topo = cluster.Datacenter(64)
		}
		driveLedger(t, topo, int64(seed)*104729+3, steps, func(l *Ledger, rng *rand.Rand, active []string, step int) {
			free := l.freeScratch()
			for _, job := range active {
				own := l.Allocation(job)
				if slices.ContainsFunc(own, func(d cluster.DeviceID) bool { return l.draining[d] }) {
					ownDraining++
				}
				avail := append(append(cluster.Allocation(nil), own...), free...)
				for n := 1; n <= len(avail); n++ {
					want, _ := packCompact(topo, avail, n, nil)
					got, workers, ok := l.Repack(job, n)
					if !ok || !slices.Equal(got, want) || workers != len(cluster.Allocation(want).Workers(topo)) {
						t.Fatalf("seed %d step %d job %s n=%d: Repack = %v on %d workers (ok %v), packCompact %v",
							seed, step, job, n, got, workers, ok, want)
					}
				}
				if _, _, ok := l.Repack(job, len(avail)+1); ok {
					t.Fatalf("seed %d step %d job %s: Repack packed %d of %d devices", seed, step, job, len(avail)+1, len(avail))
				}
			}
			checkAgainstScratch(t, l, rng, step)
		})
	}
	t.Logf("%d job checks had a draining device of their own", ownDraining)
	if ownDraining == 0 {
		t.Fatal("no check had a job holding a draining device")
	}
}
