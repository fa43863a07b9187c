package api

import (
	"fmt"

	"tenplex/internal/coordinator"
	"tenplex/internal/model"
)

// ModelSpec names the job's state catalog: either a reduced-scale
// preset or a custom catalog by kind + dimensions. Reduced-scale
// catalogs keep service workloads cheap while still moving real bytes
// through the Tensor Stores.
type ModelSpec struct {
	// Preset is one of gpt-small, gpt-tiny, moe-small, bert-small.
	Preset string `json:"preset,omitempty"`
	// Kind (gpt | moe | bert) with explicit dimensions, when no preset.
	Kind    string `json:"kind,omitempty"`
	Layers  int    `json:"layers,omitempty"`
	Hidden  int    `json:"hidden,omitempty"`
	Heads   int    `json:"heads,omitempty"`
	Vocab   int    `json:"vocab,omitempty"`
	SeqLen  int    `json:"seq_len,omitempty"`
	Experts int    `json:"experts,omitempty"`
}

// Limits on a custom catalog. The dimensions arrive from the network and
// become tensor shapes, and every admitted job's whole state is
// materialized on the stores (in the coordinator's own memory when they
// are in-process), so the state a request may ask for is capped like its
// body is. The per-dimension bounds keep the
// catalog itself small and the size arithmetic far from overflow.
const (
	maxLayers     = 128
	maxHidden     = 8192
	maxVocab      = 1 << 18
	maxSeqLen     = 1 << 16
	maxExperts    = 64
	maxStateBytes = 64 << 20
)

// Build resolves the spec into a model catalog. Anything but a preset is
// range-checked first: the model constructors panic on dimensions that
// make no catalog, and a request must never be able to reach that.
func (m ModelSpec) Build() (*model.Model, error) {
	switch m.Preset {
	case "gpt-small":
		return model.GPTCustom(6, 32, 2, 64, 8), nil
	case "gpt-tiny":
		return model.GPTCustom(4, 16, 2, 32, 8), nil
	case "moe-small":
		return model.MoECustom(3, 16, 4), nil
	case "bert-small":
		return model.BERTCustom(4, 16, 2, 32, 8), nil
	case "":
	default:
		return nil, fmt.Errorf("unknown model preset %q", m.Preset)
	}
	var built *model.Model
	switch m.Kind {
	case "gpt", "bert":
		err := inRange(dim{"layers", m.Layers, maxLayers}, dim{"hidden", m.Hidden, maxHidden},
			dim{"heads", m.Heads, maxHidden}, dim{"vocab", m.Vocab, maxVocab}, dim{"seq_len", m.SeqLen, maxSeqLen})
		if err == nil && m.Hidden%m.Heads != 0 {
			err = fmt.Errorf("model hidden %d is not a multiple of heads %d", m.Hidden, m.Heads)
		}
		if err != nil {
			return nil, err
		}
		if m.Kind == "gpt" {
			built = model.GPTCustom(m.Layers, m.Hidden, m.Heads, m.Vocab, m.SeqLen)
		} else {
			built = model.BERTCustom(m.Layers, m.Hidden, m.Heads, m.Vocab, m.SeqLen)
		}
	case "moe":
		err := inRange(dim{"layers", m.Layers, maxLayers}, dim{"hidden", m.Hidden, maxHidden},
			dim{"experts", m.Experts, maxExperts})
		if err == nil && m.Hidden%2 != 0 {
			err = fmt.Errorf("model hidden %d is odd (an MoE catalog has two heads)", m.Hidden)
		}
		if err != nil {
			return nil, err
		}
		built = model.MoECustom(m.Layers, m.Hidden, m.Experts)
	case "":
		return nil, fmt.Errorf("model needs a preset or a kind")
	default:
		return nil, fmt.Errorf("unknown model kind %q", m.Kind)
	}
	if n := built.StateBytes(); n > maxStateBytes {
		return nil, fmt.Errorf("model state of %d bytes exceeds the %d the service takes", n, maxStateBytes)
	}
	return built, nil
}

type dim struct {
	name   string
	v, max int
}

// inRange returns the first dimension outside [1, max].
func inRange(dims ...dim) error {
	for _, d := range dims {
		if d.v < 1 || d.v > d.max {
			return fmt.Errorf("model %s %d outside [1, %d]", d.name, d.v, d.max)
		}
	}
	return nil
}

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Name is optional; the job ID is <tenant>-<name>, or generated.
	Name        string    `json:"name,omitempty"`
	Model       ModelSpec `json:"model"`
	GPUs        int       `json:"gpus"`
	MinGPUs     int       `json:"min_gpus,omitempty"`
	MaxGPUs     int       `json:"max_gpus,omitempty"`
	DurationMin float64   `json:"duration_min"`
	Priority    int       `json:"priority,omitempty"`
}

// SubmitResponse returns the assigned job ID and the initial snapshot.
type SubmitResponse struct {
	ID  string                `json:"id"`
	Job coordinator.JobStatus `json:"job"`
}

// ScaleRequest is the body of POST /v1/jobs/{id}/scale.
type ScaleRequest struct {
	GPUs int `json:"gpus"`
}

// FailRequest is the body of POST /v1/cluster/fail — fault injection
// for end-to-end recovery drills.
type FailRequest struct {
	Device int `json:"device"`
}

// JobsResponse wraps GET /v1/jobs.
type JobsResponse struct {
	Jobs []coordinator.JobStatus `json:"jobs"`
}

// SubmitLatency summarizes the control plane's submit path — count
// plus coarse (power-of-two bucket) latency quantiles.
type SubmitLatency struct {
	Count int64 `json:"count"`
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// MetricsResponse wraps GET /v1/metrics: the coordinator's registry
// rows merged with the API layer's own, plus the submit-latency
// summary the load test gates on.
type MetricsResponse struct {
	Metrics       []MetricRowJSON `json:"metrics"`
	SubmitLatency SubmitLatency   `json:"submit_latency"`
}

// MetricRowJSON mirrors obs.MetricRow (kept separate so the wire
// schema is owned by this package).
type MetricRowJSON struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Int   int64   `json:"int,omitempty"`
	Float float64 `json:"float,omitempty"`
	Count int64   `json:"count,omitempty"`
	Sum   int64   `json:"sum,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
