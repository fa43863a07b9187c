package parallel

import (
	"runtime"
	"sync"
	"weak"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
)

// A PTC depends on its allocation only through device labels: the
// structure of a (model, configuration) pair — tensors, regions, which
// rank holds which list — is the same on every allocation. So the
// builders lay a pair out once, on ranks 0..n-1, keep that PTC as a
// template, and hand out copies relabelled onto the allocation asked
// for. The first call builds the template and relabels it like every
// later call does.

// templates holds, per model, the template of every configuration built
// for it so far. Models are keyed weakly and a cleanup drops a model's
// templates once it is collected, so a template never outlives its
// model. A model must not be modified once a PTC was built from it.
type templates[C comparable] struct {
	mu      sync.Mutex
	byModel map[weak.Pointer[model.Model]]map[C]*core.PTC
}

var (
	gptTemplates templates[Config]
	moeTemplates templates[MoEConfig]
)

// get returns the template of (m, cfg), laying it out with build on a
// miss. Two callers that miss at once may both build; the first to
// store its template wins, and the layouts are equal anyway.
func (c *templates[C]) get(m *model.Model, cfg C, build func(*model.Model, C) (*core.PTC, error)) (*core.PTC, error) {
	key := weak.Make(m)
	if t := c.lookup(key, cfg); t != nil {
		return t, nil
	}
	t, err := build(m, cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cfgs := c.byModel[key]
	if cfgs == nil {
		if c.byModel == nil {
			c.byModel = make(map[weak.Pointer[model.Model]]map[C]*core.PTC)
		}
		cfgs = make(map[C]*core.PTC)
		c.byModel[key] = cfgs
		runtime.AddCleanup(m, c.drop, key)
	}
	if have := cfgs[cfg]; have != nil {
		return have, nil
	}
	cfgs[cfg] = t
	return t, nil
}

// lookup returns the template of (m, cfg), or nil.
func (c *templates[C]) lookup(m weak.Pointer[model.Model], cfg C) *core.PTC {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byModel[m][cfg]
}

// drop forgets a collected model's templates.
func (c *templates[C]) drop(key weak.Pointer[model.Model]) {
	c.mu.Lock()
	delete(c.byModel, key)
	c.mu.Unlock()
}

// ranks returns the allocation a template is laid out on: devices
// 0..n-1, device i for rank i.
func ranks(n int) cluster.Allocation {
	out := make(cluster.Allocation, n)
	for i := range out {
		out[i] = cluster.DeviceID(i)
	}
	return out
}

// relabel returns a copy of template t whose rank i sits on alloc[i]:
// the list t places on rank i moves to alloc[i]. The copy gets its own
// Devices and Place and shares t's lists, regions and Tensors, which no
// PTC modifies once built.
func relabel(t *core.PTC, alloc cluster.Allocation) *core.PTC {
	out := &core.PTC{
		Name:    t.Name,
		Tensors: t.Tensors,
		Devices: append([]cluster.DeviceID(nil), alloc...),
		Place:   make(map[cluster.DeviceID][]core.SubTensor, len(alloc)),
	}
	for i, d := range alloc {
		out.Place[d] = t.Place[cluster.DeviceID(i)]
	}
	return out
}
