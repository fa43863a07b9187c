package netsim

import (
	"math"
	"testing"

	"tenplex/internal/cluster"
)

func approx(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s: got %g, want 0", msg, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > rel {
		t.Fatalf("%s: got %g, want %g (±%g rel)", msg, got, want, rel)
	}
}

func TestSimulateEmpty(t *testing.T) {
	topo := cluster.OnPrem16()
	r := Simulate(topo, nil)
	if r.Seconds != 0 || r.TotalBytes != 0 {
		t.Fatalf("empty simulation: %+v", r)
	}
}

func TestSimulateLocalFlowIsFree(t *testing.T) {
	topo := cluster.OnPrem16()
	r := Simulate(topo, []Flow{{From: DevEP(0), To: DevEP(0), Bytes: 1 << 30}})
	if r.Seconds != 0 {
		t.Fatalf("device-local flow should cost nothing, took %gs", r.Seconds)
	}
}

func TestSimulateIntraWorker(t *testing.T) {
	topo := cluster.OnPrem16()
	bytes := int64(10e9)
	// NVLink pair 0-1.
	r := Simulate(topo, []Flow{{From: DevEP(0), To: DevEP(1), Bytes: bytes}})
	approx(t, r.Seconds, float64(bytes)/topo.NVLinkBW, 1e-9, "nvlink flow")
	// Unpaired 1-2 goes over PCIe, slower.
	r2 := Simulate(topo, []Flow{{From: DevEP(1), To: DevEP(2), Bytes: bytes}})
	approx(t, r2.Seconds, float64(bytes)/topo.PCIeBW, 1e-9, "pcie flow")
	if r2.Seconds <= r.Seconds {
		t.Fatal("PCIe must be slower than NVLink")
	}
}

func TestSimulateCrossWorkerUsesNICs(t *testing.T) {
	topo := cluster.OnPrem16()
	bytes := int64(23e9)
	r := Simulate(topo, []Flow{{From: DevEP(0), To: DevEP(4), Bytes: bytes}})
	want := float64(bytes)/topo.NetBW + topo.NetLatency
	approx(t, r.Seconds, want, 1e-6, "cross-worker flow")
}

func TestSimulateNICContention(t *testing.T) {
	topo := cluster.OnPrem16()
	bytes := int64(5e9)
	// Two flows leaving worker 0 to two different workers share the
	// egress NIC: completion doubles vs a single flow.
	one := Simulate(topo, []Flow{
		{From: DevEP(0), To: DevEP(4), Bytes: bytes},
	})
	two := Simulate(topo, []Flow{
		{From: DevEP(0), To: DevEP(4), Bytes: bytes},
		{From: DevEP(1), To: DevEP(8), Bytes: bytes},
	})
	approx(t, two.Seconds, 2*one.Seconds-topo.NetLatency, 1e-3, "shared egress")
	if two.BottleneckResource != "nic-out[w0]" {
		t.Fatalf("bottleneck = %s, want nic-out[w0]", two.BottleneckResource)
	}
	// The same two flows from different source workers run in parallel.
	par := Simulate(topo, []Flow{
		{From: DevEP(0), To: DevEP(8), Bytes: bytes},
		{From: DevEP(4), To: DevEP(12), Bytes: bytes},
	})
	approx(t, par.Seconds, one.Seconds, 1e-6, "parallel disjoint flows")
}

func TestSimulateCentralBottleneck(t *testing.T) {
	// All state funneled through worker 0 (the Tenplex-Central baseline)
	// must take ~Nx longer than peer-to-peer spreading across N workers.
	topo := cluster.OnPrem16()
	bytes := int64(2e9)
	var central, p2p []Flow
	for w := 1; w < 4; w++ {
		dst := cluster.DeviceID(w * 4)
		central = append(central, Flow{From: DevEP(0), To: DevEP(dst), Bytes: bytes})
		src := cluster.DeviceID((w-1)*4 + 1) // some device on a different worker
		p2p = append(p2p, Flow{From: DevEP(src), To: DevEP(dst), Bytes: bytes})
	}
	rc := Simulate(topo, central)
	rp := Simulate(topo, p2p)
	if rc.Seconds < 2.5*rp.Seconds {
		t.Fatalf("central %.3fs not clearly slower than p2p %.3fs", rc.Seconds, rp.Seconds)
	}
}

func TestSimulateStorageFlows(t *testing.T) {
	topo := cluster.OnPrem16()
	bytes := int64(6e9)
	r := Simulate(topo, []Flow{{From: StorageEP(), To: DevEP(0), Bytes: bytes}})
	approx(t, r.Seconds, float64(bytes)/topo.StorageBW+topo.NetLatency, 1e-6, "storage read")
	if r.BottleneckResource != "storage[w0]" {
		t.Fatalf("bottleneck = %s", r.BottleneckResource)
	}
	up := Simulate(topo, []Flow{{From: DevEP(0), To: StorageEP(), Bytes: bytes}})
	approx(t, up.Seconds, float64(bytes)/topo.StorageBW+topo.NetLatency, 1e-6, "storage write")
}

func TestSimulateCopyWork(t *testing.T) {
	topo := cluster.OnPrem16()
	r := Simulate(topo, []Flow{{From: DevEP(0), To: DevEP(0), Bytes: 0, CopyBytes: int64(40e9)}})
	approx(t, r.Seconds, 2*40e9/topo.MemCopyBW, 1e-9, "copy work at both endpoints")
}

func TestSimulatePanicsOnBadFlow(t *testing.T) {
	topo := cluster.OnPrem16()
	for name, flows := range map[string][]Flow{
		"negative":           {{From: DevEP(0), To: DevEP(1), Bytes: -1}},
		"storage-to-storage": {{From: StorageEP(), To: StorageEP(), Bytes: 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Simulate(topo, flows)
		}()
	}
}

func TestAllReduceTime(t *testing.T) {
	topo := cluster.OnPrem16()
	if AllReduceTime(topo, []cluster.DeviceID{3}, 1e9) != 0 {
		t.Fatal("single-participant all-reduce must be free")
	}
	bytes := int64(1e9)
	intra := AllReduceTime(topo, []cluster.DeviceID{0, 1}, bytes)
	approx(t, intra, 2*float64(bytes)*0.5/topo.NVLinkBW, 1e-9, "nvlink pair allreduce")
	cross := AllReduceTime(topo, []cluster.DeviceID{0, 4}, bytes)
	if cross <= intra {
		t.Fatal("cross-worker all-reduce must be slower than NVLink pair")
	}
	// Larger rings move proportionally more data over the slowest link.
	four := AllReduceTime(topo, []cluster.DeviceID{0, 4, 8, 12}, bytes)
	if four <= cross {
		t.Fatal("4-way ring must be slower than 2-way over the same NIC")
	}
}

func TestPointToPointTime(t *testing.T) {
	topo := cluster.OnPrem16()
	if PointToPointTime(topo, 2, 2, 1e9) != 0 {
		t.Fatal("self transfer must be free")
	}
	if PointToPointTime(topo, 0, 1, 1e9) >= PointToPointTime(topo, 0, 4, 1e9) {
		t.Fatal("intra-worker must beat cross-worker")
	}
}

func TestSimulateDegradedLinkSlowsFlows(t *testing.T) {
	topo := cluster.OnPrem16()
	flows := []Flow{{From: DevEP(0), To: DevEP(4), Bytes: 1 << 30}} // worker 0 -> worker 1
	base := Simulate(topo, flows).Seconds

	topo.SetNetScale(1, 0.25) // destination NIC at quarter speed
	degraded := Simulate(topo, flows).Seconds
	if degraded <= base {
		t.Fatalf("degraded ingress did not slow the flow: %v <= %v", degraded, base)
	}
	want := float64(1<<30)/(topo.NetBW*0.25) + topo.NetLatency
	if diff := degraded - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("degraded time %v, want %v", degraded, want)
	}

	// A flow avoiding the degraded worker is unaffected.
	other := Simulate(topo, []Flow{{From: DevEP(8), To: DevEP(12), Bytes: 1 << 30}}).Seconds
	if diff := other - base; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("flow avoiding the degraded worker took %v, want %v", other, base)
	}

	// Storage fallback through the degraded worker prices its NIC leg at
	// the degraded bandwidth too.
	topo2 := cluster.OnPrem16()
	sbase := Simulate(topo2, []Flow{{From: StorageEP(), To: DevEP(4), Bytes: 1 << 30}})
	topo2.SetNetScale(1, 0.01)
	sdeg := Simulate(topo2, []Flow{{From: StorageEP(), To: DevEP(4), Bytes: 1 << 30}})
	if sdeg.Seconds <= sbase.Seconds {
		t.Fatalf("storage restore through degraded NIC did not slow: %v <= %v", sdeg.Seconds, sbase.Seconds)
	}
}
