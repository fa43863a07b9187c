package parallel_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/experiments"
	"tenplex/internal/job"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/tensor"
)

// freshPTC lays out (m, cfg) on alloc from scratch, one rank and one
// Assign at a time, the way BuildPTC did before it kept templates: the
// oracle a relabelled template is held to.
func freshPTC(m *model.Model, cfg parallel.Config, alloc cluster.Allocation) *core.PTC {
	p := core.NewPTC(fmt.Sprintf("%s %s", m.Name, cfg), alloc)
	params := m.StateParams()
	for _, lp := range params {
		p.AddTensor(core.TensorMeta{ID: core.TensorID(lp.Path()), DType: lp.Param.DType, Shape: lp.Param.Shape})
	}
	for pp, stage := range parallel.PartitionStages(m, cfg.PP) {
		for tp := 0; tp < cfg.TP; tp++ {
			for dp := 0; dp < cfg.DP; dp++ {
				d := cfg.DeviceFor(alloc, parallel.Rank{DP: dp, PP: pp, TP: tp})
				for _, lp := range params {
					if lp.LayerIndex < stage[0] || lp.LayerIndex >= stage[1] {
						continue
					}
					shape, dim := lp.Param.Shape, lp.Param.TPDim
					reg := tensor.FullRegion(shape)
					if dim != model.NoTP && cfg.TP > 1 && shape[dim] >= cfg.TP {
						reg[dim] = tensor.SplitRanges(shape[dim], cfg.TP)[tp]
					}
					p.Assign(d, core.TensorID(lp.Path()), reg)
				}
			}
		}
	}
	return p
}

// freshMoEPTC is freshPTC for expert parallelism.
func freshMoEPTC(m *model.Model, cfg parallel.MoEConfig, alloc cluster.Allocation) *core.PTC {
	p := core.NewPTC(fmt.Sprintf("%s %s", m.Name, cfg), alloc)
	params := m.StateParams()
	for _, lp := range params {
		p.AddTensor(core.TensorMeta{ID: core.TensorID(lp.Path()), DType: lp.Param.DType, Shape: lp.Param.Shape})
	}
	for dp := 0; dp < cfg.DP; dp++ {
		for ep := 0; ep < cfg.EP; ep++ {
			for _, lp := range params {
				if lp.Param.IsExpert && lp.Param.Expert%cfg.EP != ep {
					continue
				}
				p.Assign(alloc[dp*cfg.EP+ep], core.TensorID(lp.Path()), tensor.FullRegion(lp.Param.Shape))
			}
		}
	}
	return p
}

// layout is one (model, configuration) pair: a GPT Config or an MoE
// MoEConfig, whichever is set.
type layout struct {
	m   *model.Model
	gpt parallel.Config
	moe parallel.MoEConfig
}

func (l layout) String() string {
	if l.moe.EP > 0 {
		return l.m.Name + " " + l.moe.String()
	}
	return l.m.Name + " " + l.gpt.String()
}

func (l layout) size() int {
	if l.moe.EP > 0 {
		return l.moe.WorldSize()
	}
	return l.gpt.WorldSize()
}

func (l layout) build(alloc cluster.Allocation) (*core.PTC, error) {
	if l.moe.EP > 0 {
		return parallel.BuildMoEPTC(l.m, l.moe, alloc)
	}
	return parallel.BuildPTC(l.m, l.gpt, alloc)
}

func (l layout) fresh(alloc cluster.Allocation) *core.PTC {
	if l.moe.EP > 0 {
		return freshMoEPTC(l.m, l.moe, alloc)
	}
	return freshPTC(l.m, l.gpt, alloc)
}

func (l layout) template() *core.PTC {
	if l.moe.EP > 0 {
		return parallel.MoETemplate(l.m, l.moe)
	}
	return parallel.Template(l.m, l.gpt)
}

// plannerModels are the models of experiments.PlannerScenarios, by name.
func plannerModels() map[string]*model.Model {
	gpt := model.GPT3_6B7().WithAdam()
	moe := model.MoE(model.MoEConfig{
		Name: "moe-16e", Layers: 12, Hidden: 1024, Heads: 16,
		Experts: 64, Vocab: 32000, SeqLen: 1024,
	}).WithAdam()
	return map[string]*model.Model{gpt.Name: gpt, moe.Name: moe}
}

// parseLayout recovers the layout a built PTC was named after: "<model>
// (T=..,P=..,D=..)" or "<model> (E=..,D=..)".
func parseLayout(t *testing.T, name string, models map[string]*model.Model) layout {
	t.Helper()
	cut := strings.LastIndexByte(name, ' ')
	m := models[name[:cut]]
	if m == nil {
		t.Fatalf("PTC %q: no such model", name)
	}
	l := layout{m: m}
	if _, err := fmt.Sscanf(name[cut+1:], "(T=%d,P=%d,D=%d)", &l.gpt.TP, &l.gpt.PP, &l.gpt.DP); err == nil {
		return l
	}
	if _, err := fmt.Sscanf(name[cut+1:], "(E=%d,D=%d)", &l.moe.EP, &l.moe.DP); err != nil {
		t.Fatalf("PTC %q: no configuration in its name", name)
	}
	return l
}

// checkFresh fails unless got equals the oracle's layout of l on alloc,
// name included.
func checkFresh(t *testing.T, l layout, alloc cluster.Allocation, got *core.PTC) {
	t.Helper()
	want := l.fresh(alloc)
	if got.Name != want.Name || !got.Equal(want) {
		t.Fatalf("%s on %v: relabelled PTC differs from a fresh build", want.Name, alloc)
	}
}

// allocsFor returns allocations of n devices: ranks in order, a random
// permutation of them, and random permutations of device sets disjoint
// from them and from each other.
func allocsFor(rng *rand.Rand, n int) []cluster.Allocation {
	out := []cluster.Allocation{make(cluster.Allocation, n)}
	for i := range out[0] {
		out[0][i] = cluster.DeviceID(i)
	}
	for _, base := range []int{0, n, 3 * n} {
		a := make(cluster.Allocation, n)
		for i, j := range rng.Perm(n) {
			a[i] = cluster.DeviceID(base + j)
		}
		out = append(out, a)
	}
	return out
}

// Every PTC the planner scenarios build — a template's first use and
// every later one — equals the oracle's, and so does every layout of
// theirs relabelled onto permuted and disjoint devices, for GPT and MoE
// models. The allocation checks still run once a template is kept.
func TestRelabelMatchesFreshBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("lays out 128-device PTCs from scratch")
	}
	models := plannerModels()
	var layouts []layout
	seen := map[string]bool{}
	for _, sc := range experiments.PlannerScenarios() {
		for _, ptc := range []*core.PTC{sc.Deployed, sc.To, sc.Target()} {
			l := parseLayout(t, ptc.Name, models)
			checkFresh(t, l, ptc.Devices, ptc)
			if !seen[ptc.Name] {
				seen[ptc.Name] = true
				layouts = append(layouts, l)
			}
		}
	}
	small := model.GPTCustom(4, 32, 4, 96, 16).WithAdam()
	for _, n := range []int{1, 2, 4, 8} {
		for _, cfg := range parallel.Enumerate(n, 8, 4) {
			layouts = append(layouts, layout{m: small, gpt: cfg})
		}
	}
	moe := model.MoECustom(2, 16, 4)
	for _, cfg := range []parallel.MoEConfig{{EP: 1, DP: 2}, {EP: 2, DP: 2}, {EP: 3, DP: 1}, {EP: 4, DP: 2}} {
		layouts = append(layouts, layout{m: moe, moe: cfg})
	}

	rng := rand.New(rand.NewSource(1))
	for _, l := range layouts {
		for _, alloc := range allocsFor(rng, l.size()) {
			got, err := l.build(alloc)
			if err != nil {
				t.Fatal(err)
			}
			checkFresh(t, l, alloc, got)
		}
		if l.template() == nil {
			t.Fatalf("%v: no template kept", l)
		}
		if l.size() > 1 {
			twice := allocsFor(rng, l.size())[1]
			twice[1] = twice[0]
			if _, err := l.build(twice); err == nil {
				t.Fatalf("%v: allocation %v listing a device twice accepted", l, twice)
			}
		}
	}
}

// snapshot deep-copies what a PTC holds.
type snapshot struct {
	Name    string
	Devices []cluster.DeviceID
	Tensors map[core.TensorID]core.TensorMeta
	Place   map[cluster.DeviceID][]core.SubTensor
}

func snap(p *core.PTC) snapshot {
	s := snapshot{
		Name:    p.Name,
		Devices: slices.Clone(p.Devices),
		Tensors: map[core.TensorID]core.TensorMeta{},
		Place:   map[cluster.DeviceID][]core.SubTensor{},
	}
	for id, meta := range p.Tensors {
		meta.Shape = slices.Clone(meta.Shape)
		s.Tensors[id] = meta
	}
	for d, list := range p.Place {
		out := make([]core.SubTensor, len(list))
		for i, st := range list {
			out[i] = core.SubTensor{Tensor: st.Tensor, Region: st.Region.Clone()}
		}
		s.Place[d] = out
	}
	return s
}

// Aligning, planning, pricing, validating and degrading relabelled PTCs
// leave the templates they share exactly as they were.
func TestRelabelLeavesTemplateIntact(t *testing.T) {
	m := model.GPTCustom(4, 32, 4, 96, 16).WithAdam()
	moe := model.MoECustom(2, 16, 4)
	topo := cluster.Cloud(32)
	layouts := []layout{
		{m: m, gpt: parallel.Config{TP: 2, PP: 2, DP: 2}},
		{m: m, gpt: parallel.Config{TP: 4, PP: 2, DP: 2}},
		{m: m, gpt: parallel.Config{TP: 2, PP: 1, DP: 3}},
		{m: moe, moe: parallel.MoEConfig{EP: 2, DP: 2}},
		{m: moe, moe: parallel.MoEConfig{EP: 4, DP: 1}},
	}
	rng := rand.New(rand.NewSource(2))
	build := func(l layout) *core.PTC {
		alloc := make(cluster.Allocation, l.size())
		for i, d := range rng.Perm(len(topo.Devices))[:l.size()] {
			alloc[i] = cluster.DeviceID(d)
		}
		p, err := l.build(alloc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, l := range layouts {
		build(l)
	}
	before := map[int]snapshot{}
	for i, l := range layouts {
		before[i] = snap(l.template())
	}

	for _, pair := range [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 0}, {3, 4}, {4, 3}} {
		from, to := build(layouts[pair[0]]), build(layouts[pair[1]])
		if err := from.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := to.Validate(); err != nil {
			t.Fatal(err)
		}
		core.AlignDevices(from, to)
		from.Unique()
		plan, err := core.GeneratePlan(from, to, core.PlanOptions{Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := core.DiffPlan(plan, from, build(layouts[pair[1]]), core.PlanOptions{Topo: topo}); err != nil {
			t.Fatal(err)
		}
		failed := from.Devices[:1]
		_ = from.WithoutDevices(failed...).Validate() // degraded: may not cover
		ch, err := job.PlanTo(topo, from, to, failed)
		if err != nil {
			t.Fatal(err)
		}
		ch.Price(topo)
	}

	for i, l := range layouts {
		if !reflect.DeepEqual(snap(l.template()), before[i]) {
			t.Fatalf("%v: template changed by planning through its relabelled copies", l)
		}
	}
}

// A model's templates go with it: once nothing reaches the model and the
// collector has run, neither builder keeps a layout of it.
func TestTemplateDiesWithModel(t *testing.T) {
	gpt, moe := buildAndForget(t)
	deadline := time.Now().Add(10 * time.Second)
	for parallel.HasTemplates(gpt) || parallel.HasTemplates(moe) {
		if time.Now().After(deadline) {
			t.Fatalf("templates outlive their models (model still reachable: gpt %v, moe %v)",
				gpt.Value() != nil, moe.Value() != nil)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// buildAndForget builds PTCs of a GPT and an MoE model that no one
// keeps and returns weak pointers to the models.
func buildAndForget(t *testing.T) (weak.Pointer[model.Model], weak.Pointer[model.Model]) {
	gpt, moe := model.GPTCustom(2, 16, 2, 64, 8), model.MoECustom(2, 16, 4)
	for _, l := range []layout{
		{m: gpt, gpt: parallel.Config{TP: 2, PP: 1, DP: 2}},
		{m: gpt, gpt: parallel.Config{TP: 1, PP: 2, DP: 1}},
		{m: moe, moe: parallel.MoEConfig{EP: 2, DP: 1}},
	} {
		if _, err := l.build(allocsFor(rand.New(rand.NewSource(3)), l.size())[1]); err != nil {
			t.Fatal(err)
		}
	}
	w, wm := weak.Make(gpt), weak.Make(moe)
	if !parallel.HasTemplates(w) || !parallel.HasTemplates(wm) {
		t.Fatal("no template kept after a build")
	}
	return w, wm
}

// Builders racing on one model, on fresh and kept layouts alike, hand
// every caller a PTC equal to the oracle's; the coordinator prices
// candidates from several goroutines.
func TestRelabelConcurrentBuilds(t *testing.T) {
	m := model.GPTCustom(4, 32, 4, 96, 16).WithAdam()
	moe := model.MoECustom(2, 16, 4)
	var layouts []layout
	for _, cfg := range parallel.Enumerate(8, 8, 4) {
		layouts = append(layouts, layout{m: m, gpt: cfg})
	}
	layouts = append(layouts, layout{m: moe, moe: parallel.MoEConfig{EP: 4, DP: 2}})
	const workers = 4
	got := make([][]*core.PTC, workers)
	allocs := make([][]cluster.Allocation, workers)
	var wg sync.WaitGroup
	for w := range workers {
		rng := rand.New(rand.NewSource(int64(w)))
		for range 3 {
			for _, l := range layouts {
				allocs[w] = append(allocs[w], allocsFor(rng, l.size())[1+rng.Intn(3)])
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, alloc := range allocs[w] {
				p, err := layouts[i%len(layouts)].build(alloc)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], p)
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		for i, p := range got[w] {
			checkFresh(t, layouts[i%len(layouts)], allocs[w][i], p)
		}
	}
}
