// Package netsim converts the byte counts of a reconfiguration plan into
// transfer times on a cluster.Topology. It substitutes for the physical
// network fabric of the paper's testbeds.
//
// The model is a bottleneck (hose) model: every flow consumes capacity on
// the resources along its path — source NIC egress, destination NIC
// ingress, the intra-worker interconnect, the remote-storage link, and
// host-memory copy bandwidth at both endpoints for split/merge work. All
// flows run concurrently, so the completion time of the whole transfer
// set is the maximum, over all resources, of (total bytes through the
// resource / resource bandwidth), plus a per-round latency term. This is
// exact for max-min fair sharing when flows are long-lived, which
// reconfiguration transfers (hundreds of MB to GB) are; and it preserves
// precisely the effects the paper's evaluation hinges on: a central node
// becomes an ingress/egress bottleneck (Figs. 10, 14), per-worker
// parallelism divides NIC load (Fig. 15), and split/merge memcopies make
// tensor-parallel reconfiguration dearer than pipeline-parallel
// repartitioning (Fig. 15b vs. 15c).
package netsim

import (
	"fmt"

	"tenplex/internal/cluster"
)

// EndpointKind discriminates flow endpoints.
type EndpointKind int

const (
	// Dev is a GPU device endpoint (its host's memory, reached through
	// the worker NIC from outside).
	Dev EndpointKind = iota
	// Storage is the remote blob store that holds datasets and persisted
	// checkpoints.
	Storage
)

// Endpoint is one side of a Flow.
type Endpoint struct {
	Kind   EndpointKind
	Device cluster.DeviceID // valid when Kind == Dev
}

// DevEP returns a device endpoint.
func DevEP(id cluster.DeviceID) Endpoint { return Endpoint{Kind: Dev, Device: id} }

// StorageEP returns the remote-storage endpoint.
func StorageEP() Endpoint { return Endpoint{Kind: Storage} }

// Flow is one logical transfer of Bytes from From to To. CopyBytes adds
// host-memory copy work (splitting and merging sub-tensors) accounted at
// both endpoints' workers.
type Flow struct {
	From      Endpoint
	To        Endpoint
	Bytes     int64
	CopyBytes int64
}

// Result reports the outcome of a simulation.
type Result struct {
	// Seconds is the completion time of the whole flow set.
	Seconds float64
	// BottleneckResource names the resource that determined Seconds.
	BottleneckResource string
	// TotalBytes is the sum of flow payloads (excluding copy work).
	TotalBytes int64
	// PerResourceSeconds breaks down the occupancy of every loaded
	// resource.
	PerResourceSeconds map[string]float64
}

// resource accumulates load (bytes) against a named capacity.
type resource struct {
	name string
	bw   float64
	load int64
}

// Simulate computes the completion time of flows on topo. Flows between
// the same device are free apart from memcopy work. A zero flow set
// completes instantly.
func Simulate(topo *cluster.Topology, flows []Flow) Result {
	type key struct {
		kind   string
		worker int
	}
	res := map[key]*resource{}
	get := func(kind string, worker int, bw float64) *resource {
		k := key{kind, worker}
		r, ok := res[k]
		if !ok {
			r = &resource{name: fmt.Sprintf("%s[w%d]", kind, worker), bw: bw}
			res[k] = r
		}
		return r
	}

	var total int64
	anyNet := false
	for _, f := range flows {
		if f.Bytes < 0 || f.CopyBytes < 0 {
			panic(fmt.Sprintf("netsim: negative flow size %+v", f))
		}
		total += f.Bytes

		switch {
		case f.From.Kind == Storage && f.To.Kind == Storage:
			panic("netsim: storage-to-storage flow")
		case f.From.Kind == Storage || f.To.Kind == Storage:
			var devSide Endpoint
			if f.From.Kind == Storage {
				devSide = f.To
			} else {
				devSide = f.From
			}
			w := topo.WorkerOf(devSide.Device)
			get("storage", w, topo.StorageBW).load += f.Bytes
			if f.From.Kind == Storage {
				get("nic-in", w, topo.WorkerNetBW(w)).load += f.Bytes
			} else {
				get("nic-out", w, topo.WorkerNetBW(w)).load += f.Bytes
			}
			anyNet = anyNet || f.Bytes > 0
		default:
			src, dst := f.From.Device, f.To.Device
			ws, wd := topo.WorkerOf(src), topo.WorkerOf(dst)
			switch {
			case src == dst:
				// Local: only copy work applies (below).
			case ws == wd:
				bw := topo.IntraBW(src, dst)
				get("intra", ws, bw).load += f.Bytes
			default:
				// Reconfiguration traffic is priced against each worker's
				// CURRENT NIC bandwidth, so an active link degradation
				// (chaos.LinkDegrade) slows transfers through that worker.
				// The perfmodel's steady-state estimates (AllReduceTime,
				// PointToPointTime) deliberately stay on the nominal NetBW:
				// placement decisions should not churn with transient link
				// weather, only reconfiguration cost does.
				get("nic-out", ws, topo.WorkerNetBW(ws)).load += f.Bytes
				get("nic-in", wd, topo.WorkerNetBW(wd)).load += f.Bytes
				anyNet = anyNet || f.Bytes > 0
				// Hierarchical fabric: flows leaving the rack also occupy
				// the shared rack uplinks, and flows leaving the pod the
				// shared per-pod spine ports — so many concurrent
				// cross-rack transfers saturate the oversubscribed fabric,
				// not just their endpoints' NICs. Flat topologies (Hier
				// nil) take none of these loads and price byte-identically
				// to the pre-hierarchy model.
				if h := topo.Hier; h != nil {
					rs, rd := topo.RackOf(ws), topo.RackOf(wd)
					if rs != rd {
						get("rack-out", rs, h.RackUplinkBW).load += f.Bytes
						get("rack-in", rd, h.RackUplinkBW).load += f.Bytes
						ps, pd := topo.PodOf(ws), topo.PodOf(wd)
						if ps != pd {
							get("pod-out", ps, h.PodUplinkBW).load += f.Bytes
							get("pod-in", pd, h.PodUplinkBW).load += f.Bytes
						}
					}
				}
			}
		}

		if f.CopyBytes > 0 {
			if f.From.Kind == Dev {
				get("memcpy", topo.WorkerOf(f.From.Device), topo.MemCopyBW).load += f.CopyBytes
			}
			if f.To.Kind == Dev {
				get("memcpy", topo.WorkerOf(f.To.Device), topo.MemCopyBW).load += f.CopyBytes
			}
		}
	}

	out := Result{
		TotalBytes:         total,
		PerResourceSeconds: map[string]float64{},
	}
	for _, r := range res {
		if r.load == 0 {
			continue
		}
		secs := float64(r.load) / r.bw
		out.PerResourceSeconds[r.name] = secs
		if secs > out.Seconds {
			out.Seconds = secs
			out.BottleneckResource = r.name
		}
	}
	if anyNet {
		out.Seconds += topo.NetLatency
	}
	return out
}

// AllReduceTime estimates a bandwidth-optimal ring all-reduce of bytes
// across the given devices: each participant sends and receives
// 2·(n−1)/n of the payload over its slowest incident link. Used by the
// perfmodel for DP gradient synchronization and TP activation reduction.
func AllReduceTime(topo *cluster.Topology, devs []cluster.DeviceID, bytes int64) float64 {
	n := len(devs)
	if n <= 1 || bytes == 0 {
		return 0
	}
	// Slowest link around the ring in allocation order. PairBW resolves
	// the pair's hierarchy distance in O(1): island, node, rack or pod —
	// a cross-pod hop in a hierarchical topology is slower than a
	// same-rack hop, so spread-out rings price worse. Flat topologies
	// see exactly the original IntraBW/NetBW model.
	worst := topo.NVLinkBW
	crossWorker := false
	for i := range devs {
		a, b := devs[i], devs[(i+1)%n]
		if !topo.SameWorker(a, b) {
			crossWorker = true
		}
		if bw := topo.PairBW(a, b); bw < worst {
			worst = bw
		}
	}
	vol := 2 * float64(bytes) * float64(n-1) / float64(n)
	t := vol / worst
	if crossWorker {
		t += float64(2*(n-1)) * topo.NetLatency
	}
	return t
}

// PointToPointTime estimates a single transfer between two devices.
func PointToPointTime(topo *cluster.Topology, a, b cluster.DeviceID, bytes int64) float64 {
	if a == b || bytes == 0 {
		return 0
	}
	if topo.SameWorker(a, b) {
		return float64(bytes) / topo.IntraBW(a, b)
	}
	return float64(bytes)/topo.PairBW(a, b) + topo.NetLatency
}
