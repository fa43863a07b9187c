package parallel

import (
	"weak"

	"tenplex/internal/core"
	"tenplex/internal/model"
)

// Template returns the layout BuildPTC keeps for (m, cfg), or nil.
func Template(m *model.Model, cfg Config) *core.PTC { return gptTemplates.lookup(weak.Make(m), cfg) }

// MoETemplate returns the layout BuildMoEPTC keeps for (m, cfg), or nil.
func MoETemplate(m *model.Model, cfg MoEConfig) *core.PTC {
	return moeTemplates.lookup(weak.Make(m), cfg)
}

// HasTemplates reports whether either builder still keeps a layout of
// the model m points to.
func HasTemplates(m weak.Pointer[model.Model]) bool {
	return gptTemplates.has(m) || moeTemplates.has(m)
}

func (c *templates[C]) has(m weak.Pointer[model.Model]) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byModel[m]
	return ok
}
