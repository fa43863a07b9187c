package store

import (
	"context"
	"time"

	"tenplex/internal/obs"
)

// Observe wraps an Access with per-operation datapath spans: every
// operation records one leaf span under the scope's current task
// context, carrying the op, its path or counts, the payload bytes and —
// when the operation failed — the error. The wrapper sits OUTSIDE any
// chaos wrapper, so injected faults and the retries they trigger are
// visible in the trace as the failed operations they are. Recording is
// gated on the scope's level (LevelDatapath), so a phases-level tracer
// pays one atomic load per operation and nothing else — except an
// upload batch, whose count, bytes and latency go to the tracer's
// registry whenever it is enabled.
func Observe(inner Access, tag string, scope *obs.ScopeVar) Access {
	return Wrap(inner, func(ctx context.Context, op Op) (Op, error) {
		c := scope.Get()
		counted := op.Name == "uploadbatch" && c != nil && c.T.Enabled()
		if !c.Deep() && !counted {
			err := op.Call(ctx)
			return op, err
		}
		start := time.Now()
		err := op.Call(ctx)
		wall := time.Since(start).Nanoseconds()
		// A span's payload is a pure function of the operation and its
		// deterministic outcome, so sim-mode trace bytes stay
		// schedule-independent (the tracer strips wall time there).
		name := op.Name
		if n, ok := spanNames[name]; ok {
			name = n
		}
		attrs := map[string]any{"op": name, "store": tag}
		switch op.Name {
		case "batch":
			attrs["entries"], attrs["frames"] = int64(op.Batch.Entries), int64(op.Batch.Frames)
		case "assemble":
			attrs["items"] = int64(len(op.Items))
			if op.Assembled.LinkedBytes > 0 {
				attrs["linked"] = op.Assembled.LinkedBytes
			}
		case "uploadbatch":
			attrs["items"], attrs["bytes"] = int64(len(op.Uploads)), op.Bytes
			reg := c.T.Metrics()
			reg.Add("store.client.upload_batch.count", 1)
			reg.Add("store.client.upload_batch.bytes", op.Bytes)
			reg.Histogram("store.client.upload_batch_ns").Observe(wall)
			if !c.Deep() {
				return op, err
			}
		default:
			attrs["path"] = op.Path
		}
		if op.Bytes > 0 {
			attrs["bytes"] = op.Bytes
		}
		if err != nil {
			attrs["err"] = err.Error()
		}
		c.Record(obs.StorePrefix+name, obs.CatDatapath, wall, attrs)
		return op, err
	})
}

// spanNames names the spans whose names are not their Op's: a
// QueryInto is a store.query, an UploadFrom a store.upload.
var spanNames = map[string]string{"queryinto": "query", "uploadfrom": "upload", "uploadbatch": "upload_batch"}
