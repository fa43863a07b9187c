package parallel

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/tensor"
)

// BuildPTC constructs the parallelizable tensor collection describing
// model m's state parallelized with cfg over the allocation:
//
//   - the slicing function σ cuts every tensor-parallel parameter into
//     cfg.TP near-equal ranges along its TPDim (replicated parameters
//     are "sliced" into one full range);
//   - the partitioning function φ groups sub-tensors by pipeline stage
//     (contiguous, FLOP-balanced layer ranges) and replicates every
//     group cfg.DP times;
//   - the allocation function α maps rank (dp, pp, tp) onto
//     alloc[RankIndex], TP fastest.
//
// Optimizer-state tensors follow their parameter's slicing, as Megatron
// checkpoints do.
//
// The layout is built once per (m, cfg) and relabelled onto alloc
// (template.go), so PTCs built from one pair share their tensors, lists
// and regions; none of them may be modified.
func BuildPTC(m *model.Model, cfg Config, alloc cluster.Allocation) (*core.PTC, error) {
	if err := cfg.Validate(len(alloc), m); err != nil {
		return nil, err
	}
	if err := checkDistinct(alloc); err != nil {
		return nil, err
	}
	t, err := gptTemplates.get(m, cfg, layOut)
	if err != nil {
		return nil, err
	}
	return relabel(t, alloc), nil
}

// layOut builds the template of (m, cfg): its PTC on ranks 0..n-1.
func layOut(m *model.Model, cfg Config) (*core.PTC, error) {
	alloc := ranks(cfg.WorldSize())
	stages := PartitionStages(m, cfg.PP)

	ptc := core.NewPTC(fmt.Sprintf("%s %s", m.Name, cfg), alloc)
	params := m.StateParams()
	ids := addTensors(ptc, params)
	regs := tpRegions(params, cfg.TP)

	// A rank's placement depends on its (pp, tp) only: build each
	// sub-collection once — tensor IDs and regions computed per
	// parameter, not per rank — and place it on all its DP replicas.
	next := 0
	for pp, stage := range stages {
		// Params are in layer order and stages are consecutive layer
		// ranges, so a stage owns one run of params.
		first := next
		for next < len(params) && params[next].LayerIndex < stage[1] {
			next++
		}
		for tp := 0; tp < cfg.TP; tp++ {
			subs := make([]core.SubTensor, next-first)
			for i := range subs {
				k := first + i
				subs[i] = core.SubTensor{Tensor: ids[k], Region: regs[k*cfg.TP+tp]}
			}
			ptc.AssignAll(cfg.DPGroup(alloc, pp, tp), subs)
		}
	}
	if err := ptc.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: built PTC invalid: %w", err)
	}
	return ptc, nil
}

// checkDistinct rejects an allocation that lists a device twice: a
// device holds one rank's state.
func checkDistinct(alloc cluster.Allocation) error {
	if d, ok := alloc.Repeated(); ok {
		return fmt.Errorf("parallel: device %d listed twice in allocation %v", d, alloc)
	}
	return nil
}

// addTensors registers every state tensor of the model and returns
// their IDs, in params order.
func addTensors(ptc *core.PTC, params []model.LayerParam) []core.TensorID {
	if len(ptc.Tensors) == 0 {
		ptc.Tensors = make(map[core.TensorID]core.TensorMeta, len(params))
	}
	ids := make([]core.TensorID, len(params))
	for k, lp := range params {
		ids[k] = core.TensorID(lp.Path())
		ptc.AddTensor(core.TensorMeta{ID: ids[k], DType: lp.Param.DType, Shape: lp.Param.Shape})
	}
	return ids
}

// tpRegions returns the region of every parameter on every
// tensor-parallel rank, params[k] on rank tp at [k*tpDegree+tp], all cut
// from one arena. Parameters without a TP dimension — or too small to
// cut — are replicated in full: their ranks share one region (the PTC
// never modifies a placed region).
func tpRegions(params []model.LayerParam, tpDegree int) []tensor.Region {
	total := 0
	for _, lp := range params {
		total += len(lp.Param.Shape) * tpDegree
	}
	arena := make([]tensor.Range, 0, total)
	out := make([]tensor.Region, 0, len(params)*tpDegree)
	region := func(shape []int) tensor.Region {
		start := len(arena)
		for _, n := range shape {
			arena = append(arena, tensor.Range{Lo: 0, Hi: n})
		}
		return tensor.Region(arena[start:len(arena):len(arena)])
	}
	for _, lp := range params {
		p := lp.Param
		if p.TPDim == model.NoTP || tpDegree == 1 || p.Shape[p.TPDim] < tpDegree {
			full := region(p.Shape)
			for tp := 0; tp < tpDegree; tp++ {
				out = append(out, full)
			}
			continue
		}
		for _, cut := range tensor.SplitRanges(p.Shape[p.TPDim], tpDegree) {
			reg := region(p.Shape)
			reg[p.TPDim] = cut
			out = append(out, reg)
		}
	}
	return out
}
