package transform

import (
	"context"
	"fmt"

	"tenplex/internal/core"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// The fetch-then-assemble pipeline the streamed staging loop replaced,
// kept as the reference the equivalence suites compare Apply against
// (TestApplyEquivalenceRandomized, TestApplyEquivalenceOverREST, the
// "materialized" arm of TestApplyRoutesEquivalentOverREST). It shares
// Apply's checks, staging paths, upload and commit, so the two differ
// in how a destination tensor is built and in nothing else.

// applyFunc is what the suites run a plan through: (*Transformer).Apply
// or (*Transformer).applyMaterialized.
type applyFunc func(*Transformer, *core.Plan) (Stats, error)

// applyMaterialized is Apply through the reference pipeline, one
// assignment after the other.
func (tr *Transformer) applyMaterialized(plan *core.Plan) (Stats, error) {
	ctx := context.Background()
	if err := plan.Validate(); err != nil {
		return Stats{}, fmt.Errorf("transform: invalid plan: %w", err)
	}
	if err := tr.checkOneRegionPerTensor(plan); err != nil {
		return Stats{}, err
	}
	var st Stats
	for _, a := range plan.AllAssignments() {
		as, err := tr.applyAssignmentMaterialized(ctx, plan, a)
		if err != nil {
			tr.cleanupStaging(ctx, plan)
			return st, err
		}
		st.Assignments++
		if a.IsNoop() {
			st.Noops++
		}
		st.merge(as)
	}
	return st, tr.commit(ctx, newProgram(tr.Job, plan, tr.Stores))
}

// applyAssignmentMaterialized is the retained reference pipeline: every
// fetched range materializes as a fresh sub-tensor, the destination is
// assembled from the pieces, and the result is uploaded — each byte is
// copied at least twice before staging.
func (tr *Transformer) applyAssignmentMaterialized(ctx context.Context, plan *core.Plan, a core.Assignment) (Stats, error) {
	var st Stats
	meta := plan.To.Tensors[a.Tensor]
	dst := tr.Stores[a.Device]

	merged := tensor.New(meta.DType, a.Region.Shape()...)
	covered := 0
	for _, f := range a.Fetch {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		bytes := f.Want.NumBytes(meta.DType)
		var data *tensor.Tensor
		var err error
		switch f.Src.Kind {
		case core.FromDevice:
			src, ok := tr.Stores[f.Src.Device]
			if !ok {
				return st, fmt.Errorf("transform: no store for source device %d", f.Src.Device)
			}
			local := f.Want.Translate(f.Src.Region.Offset())
			data, err = src.Query(ModelPath(tr.Job, f.Src.Device, a.Tensor), local)
			if err != nil {
				return st, fmt.Errorf("transform: fetch %s%v from dev %d: %w", a.Tensor, f.Want, f.Src.Device, err)
			}
			if f.Src.Device == a.Device {
				st.LocalBytes += bytes
			} else {
				st.PeerBytes += bytes
			}
		case core.FromStorage:
			if tr.Storage == nil {
				return st, fmt.Errorf("transform: plan needs storage for %s%v but no StorageReader configured", a.Tensor, f.Want)
			}
			data, err = tr.Storage.ReadRange(a.Tensor, f.Want)
			if err != nil {
				return st, fmt.Errorf("transform: storage read %s%v: %w", a.Tensor, f.Want, err)
			}
			st.StorageBytes += bytes
		}
		st.BytesCopied += bytes // materializing the sub-tensor
		st.AllocBytes += bytes
		// Assemble the destination from the pieces: one more copy.
		at := f.Want.Translate(a.Region.Offset())
		if _, err := tensor.CopyRegion(merged, at, data, tensor.FullRegion(data.Shape())); err != nil {
			return st, fmt.Errorf("transform: assemble %s%v: %w", a.Tensor, a.Region, err)
		}
		covered += at.NumElems()
		st.BytesCopied += int64(data.NumBytes())
	}
	if covered < merged.NumElems() {
		return st, fmt.Errorf("transform: assemble %s%v: covered %d of %d elements", a.Tensor, a.Region, covered, merged.NumElems())
	}
	st.AllocBytes += int64(merged.NumBytes())
	if err := store.WithContext(dst).UploadContext(ctx, stagingPath(tr.Job, a.Device, a.Tensor), merged); err != nil {
		return st, fmt.Errorf("transform: stage %s on dev %d: %w", a.Tensor, a.Device, err)
	}
	if uploadCopies(dst) {
		st.BytesCopied += int64(merged.NumBytes())
	}
	return st, nil
}
