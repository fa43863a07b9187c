package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/netsim"
	"tenplex/internal/parallel"
)

// perFetchFlows is Plan.Flows as it was before the fetches between one
// pair of endpoints were summed: one flow per fetch, in plan order.
func perFetchFlows(p *core.Plan) []netsim.Flow {
	var flows []netsim.Flow
	for _, a := range p.Assignments {
		if a.IsNoop() {
			continue
		}
		meta := p.To.Tensors[a.Tensor]
		merge := len(a.Fetch) > 1
		for _, f := range a.Fetch {
			bytes := f.Want.NumBytes(meta.DType)
			fl := netsim.Flow{From: netsim.StorageEP(), To: netsim.DevEP(a.Device), Bytes: bytes}
			if f.Src.Kind == core.FromDevice {
				fl.From = netsim.DevEP(f.Src.Device)
				if f.Src.Device == a.Device {
					fl.Bytes = 0
				}
				if !f.Src.Region.Equal(f.Want) {
					fl.CopyBytes += bytes
				}
			}
			if merge {
				fl.CopyBytes += bytes
			}
			flows = append(flows, fl)
		}
	}
	return flows
}

// pairsAndRacks is the on-premise cluster — NVLink between consecutive
// device pairs of a worker only, PCIe between the others — with each
// worker in a rack of its own and two racks to a pod, so that flows
// load interconnects of two speeds, NICs, rack and pod uplinks.
func pairsAndRacks() *cluster.Topology {
	topo := cluster.OnPrem16()
	topo.Hier = &cluster.Hierarchy{
		NodesPerRack: 1, RacksPerPod: 2,
		CrossRackBW: topo.NetBW / 2, CrossPodBW: topo.NetBW / 4,
		RackUplinkBW: topo.NetBW, PodUplinkBW: topo.NetBW,
	}
	return topo
}

// One flow per endpoint pair prices exactly what one flow per fetch
// does, over random GPT transitions on shuffled allocations, fail-stop
// ones reading from storage included. The pairs' order matters: netsim
// prices a worker's interconnect at the bandwidth of the first pair to
// reach it, so the same flows sorted by endpoints price differently on
// some seed — and Flows must keep the order pairs first occur in.
func TestFlowsMatchPerFetchReference(t *testing.T) {
	topo := pairsAndRacks()
	m := model.GPTCustom(4, 16, 2, 64, 8)
	var cfgs []parallel.Config
	for _, n := range []int{2, 4, 6, 8} {
		cfgs = append(cfgs, parallel.Enumerate(n, 8, 6)...)
	}
	shuffled := func(rng *rand.Rand, n int) cluster.Allocation {
		var a cluster.Allocation
		for _, d := range rng.Perm(topo.NumDevices())[:n] {
			a = append(a, cluster.DeviceID(d))
		}
		return a
	}
	sortedDiffers := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cf, ct := cfgs[rng.Intn(len(cfgs))], cfgs[rng.Intn(len(cfgs))]
		from := buildPTC(t, m, cf, shuffled(rng, cf.WorldSize()))
		to := buildPTC(t, m, ct, shuffled(rng, ct.WorldSize()))
		opts := core.PlanOptions{Topo: topo}
		if rng.Intn(3) == 0 {
			from, opts.StorageFallback = from.WithoutDevices(from.Devices[0]), true
		}
		plan, err := core.GeneratePlan(from, core.AlignDevices(from, to), opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed %d %v -> %v", seed, cf, ct)
		flows := plan.Flows(topo)
		got, want := netsim.Simulate(topo, flows), netsim.Simulate(topo, perFetchFlows(plan))
		if got.Seconds != want.Seconds || got.TotalBytes != want.TotalBytes ||
			!reflect.DeepEqual(got.PerResourceSeconds, want.PerResourceSeconds) {
			t.Fatalf("%s: one flow per pair prices %v s, %d B, %v; one per fetch %v s, %d B, %v", label,
				got.Seconds, got.TotalBytes, got.PerResourceSeconds, want.Seconds, want.TotalBytes, want.PerResourceSeconds)
		}
		sorted := slices.Clone(flows)
		slices.SortStableFunc(sorted, func(a, b netsim.Flow) int {
			if a.From != b.From {
				return endpointOrder(a.From, b.From)
			}
			return endpointOrder(a.To, b.To)
		})
		if !reflect.DeepEqual(netsim.Simulate(topo, sorted).PerResourceSeconds, want.PerResourceSeconds) {
			sortedDiffers++
		}
	}
	if sortedDiffers == 0 {
		t.Fatal("flows sorted by endpoints price alike on every seed: the test cannot tell first-occurrence order from any other")
	}
}

func endpointOrder(a, b netsim.Endpoint) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	return int(a.Device) - int(b.Device)
}
