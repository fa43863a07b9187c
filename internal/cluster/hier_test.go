package cluster

import "testing"

// The hierarchical Datacenter topology is the substrate of the
// dcscale simulations; these tests pin its geometry (rack/pod
// arithmetic), the O(1) PairBW level comparison (symmetry plus the
// island ≥ node ≥ rack ≥ pod bandwidth triangle), and the per-worker
// health epochs the incremental control plane stamps caches with.

func TestDatacenterLayout(t *testing.T) {
	cases := []struct {
		devices, workers, racks, pods int
	}{
		{512, 64, 16, 2},
		{1024, 128, 32, 4},
		{2048, 256, 64, 8},
	}
	for _, c := range cases {
		topo := Datacenter(c.devices)
		if got := topo.NumDevices(); got != c.devices {
			t.Fatalf("Datacenter(%d): %d devices", c.devices, got)
		}
		if got := topo.NumWorkers(); got != c.workers {
			t.Fatalf("Datacenter(%d): %d workers, want %d", c.devices, got, c.workers)
		}
		if got := topo.NumRacks(); got != c.racks {
			t.Fatalf("Datacenter(%d): %d racks, want %d", c.devices, got, c.racks)
		}
		if got := topo.PodOf(topo.NumWorkers()-1) + 1; got != c.pods {
			t.Fatalf("Datacenter(%d): %d pods, want %d", c.devices, got, c.pods)
		}
	}
	// Worker → rack → pod assignment is contiguous.
	topo := Datacenter(512)
	if r := topo.RackOf(3); r != 0 {
		t.Fatalf("RackOf(3) = %d, want 0", r)
	}
	if r := topo.RackOf(4); r != 1 {
		t.Fatalf("RackOf(4) = %d, want 1", r)
	}
	if p := topo.PodOf(31); p != 0 {
		t.Fatalf("PodOf(31) = %d, want 0", p)
	}
	if p := topo.PodOf(32); p != 1 {
		t.Fatalf("PodOf(32) = %d, want 1", p)
	}
	// Flat topologies collapse to one rack, one pod.
	flat := Cloud32()
	if flat.NumRacks() != 1 || flat.RackOf(7) != 0 || flat.PodOf(7) != 0 {
		t.Fatal("flat topology must report a single rack and pod")
	}
}

func TestDatacenterIslands(t *testing.T) {
	topo := Datacenter(512)
	// Local ranks 0-3 of a worker share an island; 4-7 are the other.
	if !topo.SameIsland(0, 3) {
		t.Fatal("devices 0 and 3 should share an NVLink island")
	}
	if topo.SameIsland(3, 4) {
		t.Fatal("devices 3 and 4 straddle the island boundary")
	}
	if topo.SameIsland(0, 8) {
		t.Fatal("devices on different workers can never share an island")
	}
	// HaveNVLink mirrors island membership in a hierarchical topology.
	if !topo.HaveNVLink(0, 3) || topo.HaveNVLink(3, 4) || topo.HaveNVLink(0, 8) {
		t.Fatal("HaveNVLink must follow island membership")
	}
	if topo.HaveNVLink(5, 5) {
		t.Fatal("a device has no NVLink to itself")
	}
}

func TestPairBWSymmetryAndTriangle(t *testing.T) {
	topo := Datacenter(512)
	// Symmetry over a spread of pairs crossing every hierarchy level.
	pairs := [][2]DeviceID{
		{0, 1}, {0, 5}, {0, 9}, {0, 33}, {0, 257}, {3, 500}, {17, 255}, {100, 400},
	}
	for _, p := range pairs {
		ab, ba := topo.PairBW(p[0], p[1]), topo.PairBW(p[1], p[0])
		if ab != ba {
			t.Fatalf("PairBW(%d,%d) = %g but PairBW(%d,%d) = %g", p[0], p[1], ab, p[1], p[0], ba)
		}
	}

	// One representative pair per level; each hop down the hierarchy is
	// strictly slower.
	island := topo.PairBW(0, 1)  // same NVLink island
	node := topo.PairBW(0, 5)    // same worker, across islands (PCIe)
	rack := topo.PairBW(0, 9)    // same rack, across workers
	pod := topo.PairBW(0, 33)    // same pod, across racks (device 33 → worker 4, rack 1)
	spine := topo.PairBW(0, 257) // across pods (device 257 → worker 32, pod 1)
	ladder := []struct {
		name string
		bw   float64
	}{
		{"intra-island", island},
		{"intra-node", node},
		{"intra-rack", rack},
		{"intra-pod", pod},
		{"cross-pod", spine},
	}
	for i := 1; i < len(ladder); i++ {
		if !(ladder[i-1].bw > ladder[i].bw) {
			t.Fatalf("%s (%g) must be faster than %s (%g)",
				ladder[i-1].name, ladder[i-1].bw, ladder[i].name, ladder[i].bw)
		}
	}
	if island != topo.NVLinkBW || node != topo.PCIeBW || rack != topo.NetBW {
		t.Fatal("upper-level PairBW must match the flat link profile")
	}
	if pod != topo.Hier.CrossRackBW || spine != topo.Hier.CrossPodBW {
		t.Fatal("lower-level PairBW must match the hierarchy profile")
	}
	if self := topo.PairBW(7, 7); self != topo.MemCopyBW {
		t.Fatalf("PairBW of a device with itself = %g, want MemCopyBW", self)
	}

	// Flat topologies keep the original two-level model exactly.
	flat := Cloud32()
	if got := flat.PairBW(0, 17); got != flat.NetBW {
		t.Fatalf("flat cross-worker PairBW = %g, want NetBW %g", got, flat.NetBW)
	}
}

func TestWorkerEpochs(t *testing.T) {
	topo := Datacenter(512)
	const w = 3
	d := DeviceID(w*8 + 2) // a device on worker 3
	gen := topo.Generation()
	e3, e4 := topo.WorkerEpoch(3), topo.WorkerEpoch(4)

	topo.MarkFailed(d)
	if topo.Generation() != gen+1 || topo.WorkerEpoch(3) != e3+1 {
		t.Fatal("MarkFailed must bump the generation and the owning worker's epoch")
	}
	if topo.WorkerEpoch(4) != e4 {
		t.Fatal("MarkFailed must not touch other workers' epochs")
	}
	topo.MarkFailed(d) // already failed: no-op
	if topo.Generation() != gen+1 || topo.WorkerEpoch(3) != e3+1 {
		t.Fatal("re-failing a failed device must be a no-op")
	}
	topo.MarkRecovered(d)
	if topo.Generation() != gen+2 || topo.WorkerEpoch(3) != e3+2 {
		t.Fatal("MarkRecovered must bump the generation and the owning worker's epoch")
	}
	topo.SetNetScale(4, 0.5)
	if topo.WorkerEpoch(4) != e4+1 || topo.WorkerEpoch(3) != e3+2 {
		t.Fatal("SetNetScale must bump exactly the degraded worker's epoch")
	}
	topo.SetNetScale(4, 1) // restore
	if topo.WorkerEpoch(4) != e4+2 {
		t.Fatal("restoring a degraded link is itself a health mutation")
	}

	// Clone carries the epochs so stamps taken before a clone stay
	// comparable on the clone.
	topo.MarkFailed(d)
	c := topo.Clone()
	if c.WorkerEpoch(3) != topo.WorkerEpoch(3) || c.WorkerEpoch(4) != topo.WorkerEpoch(4) {
		t.Fatal("Clone must preserve worker epochs")
	}
	c.MarkRecovered(d)
	if c.WorkerEpoch(3) == topo.WorkerEpoch(3) {
		t.Fatal("mutating a clone must not share epoch state with the original")
	}
	if !topo.FailedDevice(d) {
		t.Fatal("recovering on the clone leaked into the original")
	}
}
