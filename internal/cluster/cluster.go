// Package cluster describes the GPU clusters that Tenplex jobs run on:
// workers (machines), devices (GPUs), and the bandwidths of the links
// connecting them. It is the substitution for the paper's physical
// testbeds — the 16-GPU on-premise cluster (4 machines × 4 × A6000,
// pairwise NVLink, 100 Gb/s InfiniBand) and the 32-GPU Azure cloud
// deployment (8 × Standard_NC24s_v3 with 4 × V100 each).
//
// The topology is consumed by internal/netsim to turn the byte counts of
// a reconfiguration plan into transfer times, and by internal/perfmodel
// to estimate training throughput for a parallelization configuration.
package cluster

import (
	"fmt"
	"slices"
	"strconv"
)

// DeviceID identifies a GPU globally within a topology.
type DeviceID int

// Device is one accelerator.
type Device struct {
	ID        DeviceID
	Worker    int     // index of the hosting worker
	LocalRank int     // index of the device within its worker
	MemGB     float64 // device memory, used for feasibility checks
}

// Worker is one machine hosting a set of devices.
type Worker struct {
	ID      int
	Devices []DeviceID
}

// Topology is a cluster description: machines, devices, and link speeds.
// All bandwidths are bytes per second.
type Topology struct {
	Name    string
	Workers []Worker
	Devices []Device

	// NVLinkBW is the bandwidth of a direct NVLink between two devices
	// on the same worker. NVLinkPairs limits NVLink connectivity to
	// consecutive device pairs (0-1, 2-3, ...), matching the paper's
	// on-premise machines where GPUs are "connected pairwise using 3rd
	// generation NVLink"; when false, all intra-worker device pairs have
	// NVLink (the V100 cloud VMs).
	NVLinkBW    float64
	NVLinkPairs bool

	// PCIeBW is the intra-worker fallback bandwidth (host staging).
	PCIeBW float64

	// NetBW is the per-worker NIC bandwidth for inter-worker traffic.
	NetBW float64
	// NetLatency is the per-transfer latency in seconds for inter-worker
	// traffic.
	NetLatency float64

	// StorageBW is the per-worker bandwidth to remote blob storage
	// (S3-like). The paper notes it is "typically lower than the
	// inter-worker bandwidth" (§5.2).
	StorageBW float64

	// MemCopyBW is the host-memory bandwidth available to the State
	// Transformer for split/merge copies.
	MemCopyBW float64

	// Hier, when non-nil, layers a datacenter hierarchy above the flat
	// worker list: NVLink islands within nodes, nodes in racks, racks in
	// pods behind an oversubscribed spine. Pair bandwidth then resolves
	// by comparing hierarchy levels (PairBW, O(1)) instead of a
	// materialized O(n²) link matrix. nil keeps the original flat model:
	// NVLink/PCIe within a worker, NetBW across workers.
	Hier *Hierarchy

	// failed holds the fail-stopped devices, netScale holds per-worker
	// NIC degradation factors, and gen counts mutations so far. Like
	// the coordinator's Ledger, this health state is mutated only by a
	// scheduler's single-threaded decision plane and is therefore not
	// locked; everything else in the topology is immutable after
	// construction, so concurrent readers of the link structure (netsim
	// flows in flight) are unaffected. Caches that memoize per topology
	// pointer must include Generation() in their keys, or they would
	// keep serving results computed for the pre-mutation cluster.
	//
	// wepoch refines gen per worker: every health mutation that touches
	// worker w (a device on w failing or recovering, w's NIC degrading)
	// bumps wepoch[w] alongside gen. A cache keyed on the epochs of
	// exactly the workers a result reads stays valid across mutations
	// elsewhere in the cluster — the update-vs-recompute contract the
	// incremental control plane relies on at datacenter scale.
	failed   map[DeviceID]bool
	netScale map[int]float64
	gen      uint64
	wepoch   map[int]uint64
}

// Hierarchy describes the datacenter levels above the worker (node)
// list. Workers are laid out in order: NodesPerRack consecutive workers
// form a rack, RacksPerPod consecutive racks form a pod, and all pods
// hang off one oversubscribed spine. Within a node, IslandSize
// consecutive local ranks share an NVLink island.
type Hierarchy struct {
	// IslandSize is the device count of one NVLink island within a
	// node; 0 or 1 means no NVLink islands (PCIe only within the node).
	IslandSize int
	// NodesPerRack and RacksPerPod shape the switch hierarchy.
	NodesPerRack int
	RacksPerPod  int

	// CrossRackBW is the effective per-flow bandwidth between two nodes
	// in different racks of the same pod (leaf oversubscription), and
	// CrossPodBW between nodes in different pods (spine
	// oversubscription). Both ≤ NetBW.
	CrossRackBW float64
	CrossPodBW  float64

	// RackUplinkBW is the aggregate capacity of one rack's uplink into
	// the pod switch; PodUplinkBW the aggregate per-pod uplink into the
	// spine. netsim loads them as shared resources so many concurrent
	// cross-rack flows saturate the fabric, not just their own NICs.
	RackUplinkBW float64
	PodUplinkBW  float64
}

// NumDevices returns the total device count.
func (t *Topology) NumDevices() int { return len(t.Devices) }

// Generation counts the topology's mutations so far. A value cached
// against (topology pointer, generation) is stale once Generation
// moves.
func (t *Topology) Generation() uint64 { return t.gen }

// Clone returns a topology sharing the immutable structure (workers,
// devices, link speeds) but with its own copy of the mutable health
// state, so a scheduler can mark failures without contaminating the
// caller's value for later runs. The coordinator clones the topology
// it is handed at the start of every run.
func (t *Topology) Clone() *Topology {
	c := *t
	c.failed = nil
	if len(t.failed) > 0 {
		c.failed = make(map[DeviceID]bool, len(t.failed))
		for d, f := range t.failed {
			c.failed[d] = f
		}
	}
	c.netScale = nil
	if len(t.netScale) > 0 {
		c.netScale = make(map[int]float64, len(t.netScale))
		for w, s := range t.netScale {
			c.netScale[w] = s
		}
	}
	c.wepoch = nil
	if len(t.wepoch) > 0 {
		c.wepoch = make(map[int]uint64, len(t.wepoch))
		for w, e := range t.wepoch {
			c.wepoch[w] = e
		}
	}
	return &c
}

// bumpWorker advances worker w's health epoch together with the global
// generation. Every mutation path (MarkFailed, MarkRecovered,
// SetNetScale) funnels through it.
func (t *Topology) bumpWorker(w int) {
	if t.wepoch == nil {
		t.wepoch = map[int]uint64{}
	}
	t.wepoch[w]++
	t.gen++
}

// WorkerEpoch returns worker w's health epoch: the number of topology
// mutations (device failures/recoveries on w, NIC scale changes of w)
// that touched it. Epochs are monotone, so any cache stamped with the
// epochs of the workers a result depends on can detect staleness with
// one comparison — mutations elsewhere leave the stamp unchanged.
func (t *Topology) WorkerEpoch(w int) uint64 { return t.wepoch[w] }

// FailedCount returns the number of currently failed devices, O(1).
func (t *Topology) FailedCount() int { return len(t.failed) }

// MarkFailed records a fail-stop device loss in the topology itself
// and bumps the generation, invalidating any memoization keyed on it.
// Link and worker structure are unchanged: the device still occupies
// its slot, it just must not be placed on. Like all health mutation it
// may only be called from a scheduler's decision plane, never
// concurrently with Generation or FailedDevice.
func (t *Topology) MarkFailed(id DeviceID) {
	t.Device(id) // range-checks
	if t.failed[id] {
		return
	}
	if t.failed == nil {
		t.failed = map[DeviceID]bool{}
	}
	t.failed[id] = true
	t.bumpWorker(t.Devices[id].Worker)
}

// MarkRecovered clears a device's failed mark (a flapping device
// re-entering service) and bumps the generation. Like MarkFailed it is
// decision-plane-only. A no-op for devices not currently failed.
func (t *Topology) MarkRecovered(id DeviceID) {
	t.Device(id) // range-checks
	if !t.failed[id] {
		return
	}
	delete(t.failed, id)
	t.bumpWorker(t.Devices[id].Worker)
}

// FailedDevice reports whether device id has been marked failed.
func (t *Topology) FailedDevice(id DeviceID) bool {
	t.Device(id) // range-checks
	return t.failed[id]
}

// SetNetScale sets worker w's NIC bandwidth to scale × nominal (a
// degraded or recovering link); scale 1 removes the entry. Decision-
// plane-only, like all health mutation; it bumps the generation so
// memoized placement scores priced against the old bandwidth are
// invalidated.
func (t *Topology) SetNetScale(w int, scale float64) {
	if w < 0 || w >= len(t.Workers) {
		panic(fmt.Sprintf("cluster: worker %d out of range", w))
	}
	if scale <= 0 {
		panic(fmt.Sprintf("cluster: net scale %v must be positive", scale))
	}
	if scale == 1 {
		if _, ok := t.netScale[w]; !ok {
			return
		}
		delete(t.netScale, w)
		t.bumpWorker(w)
		return
	}
	if t.netScale == nil {
		t.netScale = map[int]float64{}
	}
	t.netScale[w] = scale
	t.bumpWorker(w)
}

// WorkerNetBW returns worker w's current NIC bandwidth: NetBW scaled by
// any active link degradation.
func (t *Topology) WorkerNetBW(w int) float64 {
	if s, ok := t.netScale[w]; ok {
		return t.NetBW * s
	}
	return t.NetBW
}

// NumWorkers returns the machine count.
func (t *Topology) NumWorkers() int { return len(t.Workers) }

// Device returns the device with the given ID.
func (t *Topology) Device(id DeviceID) Device {
	if int(id) < 0 || int(id) >= len(t.Devices) {
		panic(fmt.Sprintf("cluster: device %d out of range (%d devices)", id, len(t.Devices)))
	}
	return t.Devices[id]
}

// WorkerOf returns the worker index hosting device id.
func (t *Topology) WorkerOf(id DeviceID) int { return t.Device(id).Worker }

// SameWorker reports whether two devices share a machine.
func (t *Topology) SameWorker(a, b DeviceID) bool { return t.WorkerOf(a) == t.WorkerOf(b) }

// RackOf returns the rack index of worker w (0 for flat topologies).
func (t *Topology) RackOf(w int) int {
	if t.Hier == nil || t.Hier.NodesPerRack < 1 {
		return 0
	}
	return w / t.Hier.NodesPerRack
}

// PodOf returns the pod index of worker w (0 for flat topologies).
func (t *Topology) PodOf(w int) int {
	if t.Hier == nil || t.Hier.RacksPerPod < 1 {
		return 0
	}
	return t.RackOf(w) / t.Hier.RacksPerPod
}

// NumRacks returns the rack count (1 for flat topologies).
func (t *Topology) NumRacks() int {
	if t.Hier == nil || t.Hier.NodesPerRack < 1 {
		return 1
	}
	return (len(t.Workers) + t.Hier.NodesPerRack - 1) / t.Hier.NodesPerRack
}

// SameIsland reports whether two devices share an NVLink island: the
// same worker, and — in a hierarchical topology with islands — the same
// IslandSize-aligned group of local ranks.
func (t *Topology) SameIsland(a, b DeviceID) bool {
	if !t.SameWorker(a, b) {
		return false
	}
	if t.Hier == nil || t.Hier.IslandSize < 2 {
		return true
	}
	da, db := t.Device(a), t.Device(b)
	return da.LocalRank/t.Hier.IslandSize == db.LocalRank/t.Hier.IslandSize
}

// HaveNVLink reports whether devices a and b are connected by NVLink.
func (t *Topology) HaveNVLink(a, b DeviceID) bool {
	if a == b || !t.SameWorker(a, b) {
		return false
	}
	if t.Hier != nil && t.Hier.IslandSize >= 2 {
		return t.SameIsland(a, b)
	}
	if !t.NVLinkPairs {
		return true
	}
	da, db := t.Device(a), t.Device(b)
	return da.LocalRank/2 == db.LocalRank/2
}

// IntraBW returns the bandwidth between two devices on the same worker.
func (t *Topology) IntraBW(a, b DeviceID) float64 {
	if t.HaveNVLink(a, b) {
		return t.NVLinkBW
	}
	return t.PCIeBW
}

// PairBW returns the nominal point-to-point bandwidth between two
// devices by comparing their hierarchy levels — island, node, rack,
// pod — in O(1), without any per-pair link matrix. On a flat topology
// (Hier nil) it degrades exactly to the original two-level model:
// IntraBW within a worker, NetBW across workers. Health state (link
// degradation) is deliberately not applied: PairBW feeds steady-state
// placement estimates, which must not churn with transient link
// weather (netsim.Simulate prices actual transfers against degraded
// NICs separately).
func (t *Topology) PairBW(a, b DeviceID) float64 {
	if a == b {
		return t.MemCopyBW
	}
	if t.SameWorker(a, b) {
		return t.IntraBW(a, b)
	}
	if t.Hier == nil {
		return t.NetBW
	}
	wa, wb := t.WorkerOf(a), t.WorkerOf(b)
	if t.RackOf(wa) == t.RackOf(wb) {
		return t.NetBW
	}
	if t.PodOf(wa) == t.PodOf(wb) {
		return t.Hier.CrossRackBW
	}
	return t.Hier.CrossPodBW
}

// Allocation is an ordered set of devices assigned to a job. Order
// matters: parallelization configurations map ranks onto devices in
// allocation order.
type Allocation []DeviceID

// Signature canonically encodes the ordered allocation, for use as a
// memoization or deduplication key. Order matters (ranks map onto
// devices in allocation order), so [0 1] and [1 0] are distinct.
func (a Allocation) Signature() string {
	b := make([]byte, 0, 4*len(a))
	for i, d := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return string(b)
}

// Contains reports whether the allocation includes device id.
func (a Allocation) Contains(id DeviceID) bool {
	for _, d := range a {
		if d == id {
			return true
		}
	}
	return false
}

// Repeated returns the least device the allocation lists more than
// once, and whether there is one.
func (a Allocation) Repeated() (DeviceID, bool) {
	s := slices.Clone(a)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i], true
		}
	}
	return 0, false
}

// Workers returns the sorted list of distinct workers used by the
// allocation.
func (a Allocation) Workers(t *Topology) []int {
	seen := map[int]bool{}
	var out []int
	for _, d := range a {
		w := t.WorkerOf(d)
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// FirstN returns an allocation of the first n devices of the topology,
// filling workers in order — the scheduler's default compact placement.
func (t *Topology) FirstN(n int) Allocation {
	if n < 1 || n > len(t.Devices) {
		panic(fmt.Sprintf("cluster: FirstN(%d) of %d devices", n, len(t.Devices)))
	}
	out := make(Allocation, n)
	for i := 0; i < n; i++ {
		out[i] = DeviceID(i)
	}
	return out
}

// DevicesOn returns an allocation of every device on the given workers,
// in worker order.
func (t *Topology) DevicesOn(workers ...int) Allocation {
	var out Allocation
	for _, w := range workers {
		if w < 0 || w >= len(t.Workers) {
			panic(fmt.Sprintf("cluster: worker %d out of range", w))
		}
		out = append(out, t.Workers[w].Devices...)
	}
	return out
}

// New builds a uniform topology of numWorkers machines with devsPerWorker
// devices each, using the supplied link speeds.
func New(name string, numWorkers, devsPerWorker int, cfg LinkConfig) *Topology {
	if numWorkers < 1 || devsPerWorker < 1 {
		panic("cluster: New needs at least one worker and one device")
	}
	t := &Topology{
		Name:        name,
		NVLinkBW:    cfg.NVLinkBW,
		NVLinkPairs: cfg.NVLinkPairs,
		PCIeBW:      cfg.PCIeBW,
		NetBW:       cfg.NetBW,
		NetLatency:  cfg.NetLatency,
		StorageBW:   cfg.StorageBW,
		MemCopyBW:   cfg.MemCopyBW,
	}
	for w := 0; w < numWorkers; w++ {
		worker := Worker{ID: w}
		for d := 0; d < devsPerWorker; d++ {
			id := DeviceID(w*devsPerWorker + d)
			t.Devices = append(t.Devices, Device{
				ID: id, Worker: w, LocalRank: d, MemGB: cfg.DeviceMemGB,
			})
			worker.Devices = append(worker.Devices, id)
		}
		t.Workers = append(t.Workers, worker)
	}
	return t
}

// LinkConfig bundles the link speeds for New. All bandwidths in bytes/s.
type LinkConfig struct {
	NVLinkBW    float64
	NVLinkPairs bool
	PCIeBW      float64
	NetBW       float64
	NetLatency  float64
	StorageBW   float64
	MemCopyBW   float64
	DeviceMemGB float64
}

const (
	gb = 1e9
)

// OnPrem16 reproduces the paper's on-premise testbed: 4 machines × 4 ×
// NVIDIA RTX A6000, PCIe 4.0, pairwise NVLink 3, 100 Gb/s InfiniBand.
func OnPrem16() *Topology {
	return New("onprem-16xA6000", 4, 4, LinkConfig{
		NVLinkBW:    112 * gb, // A6000 NVLink bridge
		NVLinkPairs: true,
		PCIeBW:      28 * gb,   // PCIe 4.0 x16 effective
		NetBW:       11.5 * gb, // 100 Gb/s InfiniBand effective
		NetLatency:  5e-6,
		StorageBW:   1.2 * gb, // shared NFS/blob store
		MemCopyBW:   20 * gb,
		DeviceMemGB: 48,
	})
}

// Cloud32 reproduces the paper's cloud testbed: 8 Azure
// Standard_NC24s_v3 VMs, each with 4 × NVIDIA V100 (full-mesh NVLink).
func Cloud32() *Topology {
	return New("azure-32xV100", 8, 4, LinkConfig{
		NVLinkBW:    130 * gb, // V100 NVLink2 (per-pair aggregate)
		NVLinkPairs: false,
		PCIeBW:      12 * gb, // PCIe 3.0 x16 effective
		NetBW:       3 * gb,  // ~24 Gb/s VM network
		NetLatency:  40e-6,
		StorageBW:   0.8 * gb, // Azure blob per-VM
		MemCopyBW:   2.5 * gb, // strided sub-tensor copies on the VM host CPU
		DeviceMemGB: 16,
	})
}

// Datacenter builds a hierarchical datacenter topology of nDevices
// (a multiple of 8): 8-GPU nodes with two 4-GPU NVLink islands each,
// 4 nodes per rack (32 GPUs), 8 racks per pod (256 GPUs), pods behind
// an oversubscribed spine. The link profile is a contemporary
// leaf–spine fabric: full NVLink inside an island, PCIe across
// islands of one node, node NICs at full rate within a rack, 2:1
// oversubscription at the rack uplink and 4:1 at the spine. This is
// the topology the datacenter-scale (dcscale) simulations run on —
// 512, 1024 and 2048 devices are 2, 4 and 8 pods.
func Datacenter(nDevices int) *Topology {
	const (
		devsPerNode  = 8
		islandSize   = 4
		nodesPerRack = 4
		racksPerPod  = 8
		netBW        = 12 * gb // ~100 GbE per-node NIC effective
	)
	if nDevices%devsPerNode != 0 || nDevices < devsPerNode {
		panic(fmt.Sprintf("cluster: Datacenter wants a multiple of %d devices, got %d", devsPerNode, nDevices))
	}
	t := New(fmt.Sprintf("dc-%dxH100", nDevices), nDevices/devsPerNode, devsPerNode, LinkConfig{
		NVLinkBW:    150 * gb, // intra-island NVLink
		NVLinkPairs: false,    // islands, not pairs — see Hier.IslandSize
		PCIeBW:      25 * gb,  // cross-island within a node
		NetBW:       netBW,
		NetLatency:  10e-6,
		StorageBW:   2 * gb,
		MemCopyBW:   20 * gb,
		DeviceMemGB: 80,
	})
	t.Hier = &Hierarchy{
		IslandSize:   islandSize,
		NodesPerRack: nodesPerRack,
		RacksPerPod:  racksPerPod,
		CrossRackBW:  netBW / 2, // 2:1 leaf oversubscription per flow
		CrossPodBW:   netBW / 4, // 4:1 spine oversubscription per flow
		// Aggregate uplinks: a rack's 4 NICs share a 2:1-oversubscribed
		// uplink; a pod's 8 rack uplinks share a 4:1-oversubscribed
		// spine port.
		RackUplinkBW: float64(nodesPerRack) * netBW / 2,
		PodUplinkBW:  float64(racksPerPod) * float64(nodesPerRack) * netBW / 4,
	}
	return t
}

// Cloud with n devices (multiple of 4) using the Cloud32 link profile;
// used by the Fig. 15 cluster-size sweep.
func Cloud(nDevices int) *Topology {
	if nDevices%4 != 0 || nDevices < 4 {
		panic(fmt.Sprintf("cluster: Cloud wants a multiple of 4 devices, got %d", nDevices))
	}
	t := Cloud32()
	out := New(fmt.Sprintf("azure-%dxV100", nDevices), nDevices/4, 4, LinkConfig{
		NVLinkBW:    t.NVLinkBW,
		NVLinkPairs: t.NVLinkPairs,
		PCIeBW:      t.PCIeBW,
		NetBW:       t.NetBW,
		NetLatency:  t.NetLatency,
		StorageBW:   t.StorageBW,
		MemCopyBW:   t.MemCopyBW,
		DeviceMemGB: 16,
	})
	return out
}
