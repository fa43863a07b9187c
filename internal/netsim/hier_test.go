package netsim

import (
	"strings"
	"testing"

	"tenplex/internal/cluster"
)

// Hierarchical fabric accounting: cross-rack flows must occupy the
// shared rack uplinks (and cross-pod flows the spine ports) so that
// many concurrent transfers saturate the oversubscribed fabric, while
// flat topologies keep pricing byte-identically to the two-level
// model.

func hierResources(r Result) []string {
	var out []string
	for name := range r.PerResourceSeconds {
		if strings.HasPrefix(name, "rack-") || strings.HasPrefix(name, "pod-") {
			out = append(out, name)
		}
	}
	return out
}

func TestSimulateHierarchicalUplinks(t *testing.T) {
	topo := cluster.Datacenter(512) // 64 workers, 16 racks, 2 pods
	const mb = int64(1 << 20)

	// Cross-pod: device 0 (worker 0, rack 0, pod 0) → device 256
	// (worker 32, rack 8, pod 1) loads both rack uplinks and both spine
	// ports.
	r := Simulate(topo, []Flow{{From: DevEP(0), To: DevEP(256), Bytes: 64 * mb}})
	for _, res := range []string{"rack-out[w0]", "rack-in[w8]", "pod-out[w0]", "pod-in[w1]"} {
		if r.PerResourceSeconds[res] <= 0 {
			t.Fatalf("cross-pod flow did not load %s (loaded: %v)", res, hierResources(r))
		}
	}

	// Cross-rack within a pod: device 0 → device 32 (worker 4, rack 1,
	// pod 0) loads rack uplinks but no spine ports.
	r = Simulate(topo, []Flow{{From: DevEP(0), To: DevEP(32), Bytes: 64 * mb}})
	if r.PerResourceSeconds["rack-out[w0]"] <= 0 || r.PerResourceSeconds["rack-in[w1]"] <= 0 {
		t.Fatalf("cross-rack flow did not load the rack uplinks (loaded: %v)", hierResources(r))
	}
	for name := range r.PerResourceSeconds {
		if strings.HasPrefix(name, "pod-") {
			t.Fatalf("intra-pod flow loaded spine resource %s", name)
		}
	}

	// Same rack, different workers: NICs only, no fabric resources.
	r = Simulate(topo, []Flow{{From: DevEP(0), To: DevEP(8), Bytes: 64 * mb}})
	if res := hierResources(r); len(res) != 0 {
		t.Fatalf("same-rack flow loaded fabric resources %v", res)
	}

	// Flat topologies never see fabric resources.
	flat := cluster.Cloud32()
	r = Simulate(flat, []Flow{{From: DevEP(0), To: DevEP(17), Bytes: 64 * mb}})
	if res := hierResources(r); len(res) != 0 {
		t.Fatalf("flat topology loaded fabric resources %v", res)
	}
}

func TestSimulateUplinkSaturation(t *testing.T) {
	topo := cluster.Datacenter(512)
	const mb = int64(1 << 20)
	// 16 concurrent cross-pod flows from distinct rack-0 workers: per-NIC
	// load stays one flow, but the shared pod uplink carries all 16 —
	// under 4:1 spine oversubscription it must become the bottleneck.
	var flows []Flow
	for i := 0; i < 4; i++ { // 4 source workers in rack 0
		for j := 0; j < 4; j++ {
			src := cluster.DeviceID(i*8 + j)
			dst := cluster.DeviceID(256 + (i*4+j)*8) // distinct pod-1 workers
			flows = append(flows, Flow{From: DevEP(src), To: DevEP(dst), Bytes: 64 * mb})
		}
	}
	r := Simulate(topo, flows)
	if !strings.HasPrefix(r.BottleneckResource, "rack-out") && !strings.HasPrefix(r.BottleneckResource, "pod-") {
		t.Fatalf("16-way cross-pod fan-out bottleneck = %s, want an oversubscribed fabric resource (per resource: %v)",
			r.BottleneckResource, r.PerResourceSeconds)
	}
}

func TestAllReduceHierarchyPenalty(t *testing.T) {
	topo := cluster.Datacenter(512)
	const gb = int64(1 << 30)
	// A rack-local ring (workers 0-3) beats the same-size ring spread
	// across pods: the spread ring's worst link is the 4:1 spine.
	local := []cluster.DeviceID{0, 8, 16, 24}
	spread := []cluster.DeviceID{0, 128, 256, 384}
	tl := AllReduceTime(topo, local, gb)
	ts := AllReduceTime(topo, spread, gb)
	if !(ts > tl) {
		t.Fatalf("cross-pod all-reduce (%.3fs) must be slower than rack-local (%.3fs)", ts, tl)
	}
	// Island-local beats cross-island within a node.
	island := []cluster.DeviceID{0, 1, 2, 3}
	node := []cluster.DeviceID{0, 2, 4, 6}
	if ti, tn := AllReduceTime(topo, island, gb), AllReduceTime(topo, node, gb); !(tn > ti) {
		t.Fatalf("cross-island all-reduce (%.3fs) must be slower than island-local (%.3fs)", tn, ti)
	}
}
