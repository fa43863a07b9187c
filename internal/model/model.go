// Package model provides shape-accurate catalogs of the DNN models used
// in the paper's evaluation: GPT-3 (1.3B "XL", 2.7B, 6.7B), BERT-large
// and ResNet-50. A Model lists every parameter tensor with its real
// shape, its Megatron-style tensor-parallel split dimension, and a FLOP
// estimate, which is everything the PTC, the planner, and the throughput
// cost model need.
//
// Models exist at two scales. The paper-scale catalogs carry the true
// shapes (billions of parameters) and are used by the performance plane,
// which never materializes tensor bytes. Reduced-scale variants (see
// GPTCustom) materialize real tensors for the correctness plane — unit
// tests, examples and convergence experiments.
package model

import (
	"strconv"

	"tenplex/internal/tensor"
)

// NoTP marks a parameter that is replicated (not sliced) under tensor
// parallelism, e.g. layer norms.
const NoTP = -1

// Param describes one named parameter tensor of a layer.
type Param struct {
	// Name is the parameter's path component, e.g. "attn/qkv/weight".
	Name string
	// Shape is the full (unsliced) tensor shape, [out, in] for weights.
	Shape []int
	// DType of the stored parameter.
	DType tensor.DType
	// TPDim is the dimension sliced under tensor parallelism, or NoTP
	// for replicated parameters. Column-parallel layers slice dim 0,
	// row-parallel layers slice dim 1 (Megatron-LM convention).
	TPDim int
	// IsExpert marks a parameter owned by one mixture-of-experts
	// expert; Expert is that expert's index. Expert parallelism (§4.3)
	// partitions parameters by expert instead of slicing them.
	IsExpert bool
	Expert   int
}

// NumBytes returns the parameter's full byte size.
func (p Param) NumBytes() int64 { return tensor.ShapeNumBytes(p.DType, p.Shape) }

// NumElems returns the parameter's element count.
func (p Param) NumElems() int64 { return int64(tensor.ShapeNumElems(p.Shape)) }

// Layer is a pipeline-partitionable unit: parameters plus a compute cost.
type Layer struct {
	// Name is the layer's path component, e.g. "block.7".
	Name string
	// Params lists the layer's parameter tensors.
	Params []Param
	// FLOPsPerSample estimates forward+backward FLOPs for one training
	// sample; the perfmodel balances pipeline stages with it.
	FLOPsPerSample float64
}

// NumBytes returns the layer's total parameter bytes.
func (l Layer) NumBytes() int64 {
	var n int64
	for _, p := range l.Params {
		n += p.NumBytes()
	}
	return n
}

// Model is an ordered list of layers plus bookkeeping metadata.
type Model struct {
	// Name identifies the catalog entry, e.g. "gpt3-2.7b".
	Name string
	// Layers in execution order; pipeline parallelism cuts this list.
	Layers []Layer
	// SeqLen is the training sequence length (tokens per sample) for
	// sequence models, or 0.
	SeqLen int
	// ActElemsPerSample estimates the activation elements one sample
	// produces at a layer boundary (seq×hidden for transformers, the
	// largest feature map for CNNs); the perfmodel prices pipeline and
	// tensor-parallel communication with it.
	ActElemsPerSample int
	// OptimizerStates counts additional same-shaped tensors kept per
	// parameter (2 for Adam's m and v). They enlarge checkpoints and
	// follow the parameter's slicing.
	OptimizerStates int
	// OptimizerDType is the dtype of optimizer-state tensors.
	OptimizerDType tensor.DType
}

// NumParams returns the total parameter element count.
func (m *Model) NumParams() int64 {
	var n int64
	for _, l := range m.Layers {
		for _, p := range l.Params {
			n += p.NumElems()
		}
	}
	return n
}

// ParamBytes returns the byte size of all parameters (without optimizer
// state).
func (m *Model) ParamBytes() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.NumBytes()
	}
	return n
}

// StateBytes returns the byte size of the full model state: parameters
// plus optimizer tensors. This is what a checkpoint holds and what
// reconfiguration must move.
func (m *Model) StateBytes() int64 {
	n := m.ParamBytes()
	if m.OptimizerStates > 0 {
		n += m.NumParams() * int64(m.OptimizerStates) * int64(m.OptimizerDType.Size())
	}
	return n
}

// FLOPsPerSample sums the per-layer compute estimates.
func (m *Model) FLOPsPerSample() float64 {
	var f float64
	for _, l := range m.Layers {
		f += l.FLOPsPerSample
	}
	return f
}

// StateParams enumerates every state tensor of the model — parameters
// and, when OptimizerStates > 0, their optimizer companions named
// "<param>.opt<k>" — as (layer index, Param) pairs in a deterministic
// order. This is the tensor set T of the PTC.
func (m *Model) StateParams() []LayerParam {
	n := 0
	for _, l := range m.Layers {
		n += len(l.Params)
	}
	out := make([]LayerParam, 0, n*(1+m.OptimizerStates))
	for li, l := range m.Layers {
		for _, p := range l.Params {
			out = append(out, LayerParam{LayerIndex: li, LayerName: l.Name, Param: p})
			for k := 0; k < m.OptimizerStates; k++ {
				op := p
				op.Name = p.Name + ".opt" + strconv.Itoa(k)
				op.DType = m.OptimizerDType
				out = append(out, LayerParam{LayerIndex: li, LayerName: l.Name, Param: op})
			}
		}
	}
	return out
}

// LayerParam is a state tensor qualified by its layer.
type LayerParam struct {
	LayerIndex int
	LayerName  string
	Param      Param
}

// Path returns the canonical hierarchical path of the tensor within a
// model-state tree, e.g. "block.3/attn/qkv/weight".
func (lp LayerParam) Path() string { return lp.LayerName + "/" + lp.Param.Name }

// WithAdam returns a copy of m carrying 2 float32 optimizer states per
// parameter (Adam's first and second moments).
func (m *Model) WithAdam() *Model {
	c := *m
	c.OptimizerStates = 2
	c.OptimizerDType = tensor.Float32
	return &c
}

// TensorParallelizable reports whether any parameter has a
// tensor-parallel split dimension; configurations with TP > 1 are
// infeasible for models without one (e.g. ResNet).
func (m *Model) TensorParallelizable() bool {
	for _, l := range m.Layers {
		for _, p := range l.Params {
			if p.TPDim != NoTP {
				return true
			}
		}
	}
	return false
}
