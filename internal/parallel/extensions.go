package parallel

import (
	"fmt"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
)

// The PTC's three functions generalize beyond (T, P, D) — §4.3. This
// file implements expert parallelism for mixture-of-experts models.

// MoEConfig is an expert-parallel configuration: EP expert groups
// replicated DP ways. Experts are distributed round-robin over the EP
// ranks; attention/norm/router parameters are replicated within each
// replica's EP group (the usual DeepSpeed-MoE deployment).
type MoEConfig struct {
	EP, DP int
}

// WorldSize returns the device count the configuration occupies.
func (c MoEConfig) WorldSize() int { return c.EP * c.DP }

func (c MoEConfig) String() string { return fmt.Sprintf("(E=%d,D=%d)", c.EP, c.DP) }

// BuildMoEPTC expresses expert parallelism with the PTC functions: the
// slicing function σ is the identity (experts are whole tensors), the
// partitioning function φ groups tensors by expert — analogous to
// pipeline stages, with expert groups in place of stage groups — and α
// assigns group (dp, ep) to alloc[dp·EP + ep]. Like BuildPTC, it
// relabels one layout per (m, cfg).
func BuildMoEPTC(m *model.Model, cfg MoEConfig, alloc cluster.Allocation) (*core.PTC, error) {
	if cfg.EP < 1 || cfg.DP < 1 {
		return nil, fmt.Errorf("parallel: bad MoE config %v", cfg)
	}
	if cfg.WorldSize() != len(alloc) {
		return nil, fmt.Errorf("parallel: %v needs %d devices, allocation has %d", cfg, cfg.WorldSize(), len(alloc))
	}
	if err := checkDistinct(alloc); err != nil {
		return nil, err
	}
	t, err := moeTemplates.get(m, cfg, layOutMoE)
	if err != nil {
		return nil, err
	}
	return relabel(t, alloc), nil
}

// layOutMoE builds the template of (m, cfg): its PTC on ranks 0..n-1.
func layOutMoE(m *model.Model, cfg MoEConfig) (*core.PTC, error) {
	nExperts := m.NumExperts()
	if nExperts == 0 {
		return nil, fmt.Errorf("parallel: model %s has no experts", m.Name)
	}
	if cfg.EP > nExperts {
		return nil, fmt.Errorf("parallel: EP=%d exceeds %d experts", cfg.EP, nExperts)
	}

	alloc := ranks(cfg.WorldSize())
	ptc := core.NewPTC(fmt.Sprintf("%s %s", m.Name, cfg), alloc)
	params := m.StateParams()
	ids := addTensors(ptc, params)
	regs := tpRegions(params, 1) // σ is the identity: one full region per tensor
	// One pass over the parameters: an expert's tensors go to its group,
	// everything else to every group. Each group is sized first, so it is
	// filled without regrowing.
	shared, own := 0, make([]int, cfg.EP)
	for k := range params {
		if p := &params[k].Param; p.IsExpert {
			own[p.Expert%cfg.EP]++
		} else {
			shared++
		}
	}
	groups := make([][]core.SubTensor, cfg.EP)
	for ep := range groups {
		groups[ep] = make([]core.SubTensor, 0, shared+own[ep])
	}
	for k := range params {
		sub := core.SubTensor{Tensor: ids[k], Region: regs[k]}
		if p := &params[k].Param; p.IsExpert {
			groups[p.Expert%cfg.EP] = append(groups[p.Expert%cfg.EP], sub)
			continue
		}
		for ep := range groups {
			groups[ep] = append(groups[ep], sub)
		}
	}
	for ep, subs := range groups {
		replicas := make([]cluster.DeviceID, cfg.DP)
		for dp := range replicas {
			replicas[dp] = alloc[dp*cfg.EP+ep]
		}
		ptc.AssignAll(replicas, subs)
	}
	if err := ptc.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: built MoE PTC invalid: %w", err)
	}
	return ptc, nil
}
