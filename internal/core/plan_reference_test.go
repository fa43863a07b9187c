package core

import (
	"fmt"
	"sort"

	"tenplex/internal/cluster"
	"tenplex/internal/tensor"
)

// generatePlanReference is the original linear-scan plan generator,
// kept as the executable specification of GeneratePlan: the optimized
// indexed planner must produce byte-identical plans (see
// TestPlanEquivalence*). It is O(assignments × holders log holders)
// and must not be used on hot paths.
func generatePlanReference(from, to *PTC, opts PlanOptions) (*Plan, error) {
	if err := checkPlanMeta(from, to); err != nil {
		return nil, err
	}

	// Index source sub-tensors by tensor ID.
	type holder struct {
		dev cluster.DeviceID
		reg tensor.Region
	}
	srcIdx := map[TensorID][]holder{}
	for _, d := range from.Devices {
		for _, s := range from.Place[d] {
			srcIdx[s.Tensor] = append(srcIdx[s.Tensor], holder{d, s.Region})
		}
	}

	// sendLoad tracks bytes each source device has been asked to send,
	// for balancing among equally-near replicas.
	sendLoad := map[cluster.DeviceID]int64{}

	plan := &Plan{From: from, To: to}
	for _, d := range to.Devices {
		for _, want := range to.Place[d] {
			meta := to.Tensors[want.Tensor]
			a := Assignment{Device: d, Tensor: want.Tensor, Region: want.Region.Clone()}
			remaining := []tensor.Region{want.Region.Clone()}

			holders := append([]holder(nil), srcIdx[want.Tensor]...)
			// Preference: local device first, then same worker, then
			// remote ordered by current send load (ties by device ID for
			// determinism).
			sort.SliceStable(holders, func(i, j int) bool {
				hi, hj := holders[i], holders[j]
				pi, pj := sourceTier(opts.Topo, d, hi.dev), sourceTier(opts.Topo, d, hj.dev)
				if pi != pj {
					return pi < pj
				}
				if pi == 2 && sendLoad[hi.dev] != sendLoad[hj.dev] {
					return sendLoad[hi.dev] < sendLoad[hj.dev]
				}
				return hi.dev < hj.dev
			})

			for _, h := range holders {
				if len(remaining) == 0 {
					break
				}
				var next []tensor.Region
				for _, rem := range remaining {
					inter, ok := rem.Intersect(h.reg)
					if !ok {
						next = append(next, rem)
						continue
					}
					a.Fetch = append(a.Fetch, Fetch{
						Want: inter,
						Src:  Source{Kind: FromDevice, Device: h.dev, Region: h.reg.Clone()},
					})
					if h.dev != d {
						sendLoad[h.dev] += inter.NumBytes(meta.DType)
					}
					next = append(next, subtractRegion(rem, inter)...)
				}
				remaining = next
			}

			for _, rem := range remaining {
				if !opts.StorageFallback {
					return nil, fmt.Errorf(
						"core: plan: range %v of %q unavailable on any device (enable StorageFallback to recover from checkpoints)",
						rem, want.Tensor)
				}
				a.Fetch = append(a.Fetch, Fetch{
					Want: rem,
					Src:  Source{Kind: FromStorage, Region: tensor.FullRegion(meta.Shape)},
				})
			}

			// Deterministic fetch order: by region, device sources first.
			sort.SliceStable(a.Fetch, func(i, j int) bool {
				return regionLess(a.Fetch[i].Want, a.Fetch[j].Want)
			})
			plan.Assignments = append(plan.Assignments, a)
		}
	}
	return plan, nil
}
