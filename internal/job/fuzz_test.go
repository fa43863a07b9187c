package job

import (
	"context"
	"slices"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/transform"
)

// FuzzPlanChange plans a change of a small job deployed as (T=1,P=1,D=2)
// on devices 0 and 1 of a 32-device cluster onto any (config,
// allocation, failed devices): allocations may list a device twice, name
// devices the cluster does not have (negative ones too) or devices that
// failed. No input may panic. Each is refused with an error, or planned
// into a change whose plan validates, whose target lists each device
// once, and whose apply over in-process stores — the failed devices'
// state wiped, the lost ranges generated from the job's seed checkpoint —
// leaves the state bit-identical to what was deployed.
func FuzzPlanChange(f *testing.F) {
	// A device listed twice: the first panicked in AlignDevices, the
	// second planned a target holding one device's state twice.
	f.Add(uint8(0), uint8(0), uint8(3), []byte{0, 1, 2, 1}, []byte{})
	f.Add(uint8(0), uint8(0), uint8(3), []byte{0, 1, 2, 2}, []byte{})
	f.Add(uint8(1), uint8(1), uint8(0), []byte{0, 1, 2, 3}, []byte{})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{1, 5}, []byte{0})
	f.Add(uint8(1), uint8(0), uint8(0), []byte{2, 3}, []byte{0, 1})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 40}, []byte{})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 0xff}, []byte{})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 1}, []byte{1})
	m := tinyGPT()
	const seed = 3
	f.Fuzz(func(t *testing.T, tp, pp, dp uint8, allocBytes, failedBytes []byte) {
		if len(allocBytes) > 16 || len(failedBytes) > 4 {
			return
		}
		ids := func(b []byte) []cluster.DeviceID {
			out := make([]cluster.DeviceID, len(b))
			for i, v := range b {
				out[i] = cluster.DeviceID(int8(v))
			}
			return out
		}
		alloc, failed := cluster.Allocation(ids(allocBytes)), ids(failedBytes)
		cfg := parallel.Config{TP: 1 + int(tp%4), PP: 1 + int(pp%4), DP: 1 + int(dp%4)}

		ctx := context.Background()
		topo := cluster.Cloud(32)
		stores := map[cluster.DeviceID]store.Access{}
		for _, d := range topo.Devices {
			stores[d.ID] = store.Local{FS: store.NewMemFS()}
		}
		rt := &Runtime{Name: "fuzz", Model: m, Topo: topo, Stores: stores, Storage: store.Local{FS: store.NewMemFS()}}
		srcCfg, srcAlloc := parallel.Config{TP: 1, PP: 1, DP: 2}, cluster.Allocation{0, 1}
		src, err := parallel.BuildPTC(m, srcCfg, srcAlloc)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.DeploySeed(ctx, src, srcCfg, srcAlloc, seed); err != nil {
			t.Fatal(err)
		}
		for _, d := range failed {
			if acc, ok := stores[d]; ok {
				_ = acc.Delete(transform.ModelRoot(rt.Name)) // may hold nothing
			}
		}

		ch, err := Plan(m, topo, rt.PTC, cfg, alloc, failed)
		if err != nil {
			return
		}
		if err := ch.Plan.Validate(); err != nil {
			t.Fatalf("%v on %v, failed %v: invalid plan: %v", cfg, alloc, failed, err)
		}
		if sorted := slices.Sorted(slices.Values(ch.To.Devices)); len(slices.Compact(sorted)) != len(ch.To.Devices) {
			t.Fatalf("%v on %v, failed %v: target lists a device twice: %v", cfg, alloc, failed, ch.To.Devices)
		}
		if _, err := rt.Apply(ctx, ch); err != nil {
			t.Fatalf("%v on %v, failed %v: apply: %v", cfg, alloc, failed, err)
		}
		if err := rt.Verify(ctx, seed); err != nil {
			t.Fatalf("%v on %v, failed %v: %v", cfg, alloc, failed, err)
		}
	})
}
