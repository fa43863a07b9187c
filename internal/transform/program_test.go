package transform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
)

// untouched is a store the program may look at but never call: every
// operation fails the test.
type untouched struct{ t *testing.T }

func (u untouched) touched(op string) error {
	u.t.Errorf("the program called %s on a store", op)
	return errors.New("store touched")
}

func (u untouched) Query(string, tensor.Region) (*tensor.Tensor, error) {
	return nil, u.touched("Query")
}
func (u untouched) QueryInto(string, tensor.Region, *tensor.Tensor, tensor.Region) (int64, error) {
	return 0, u.touched("QueryInto")
}
func (u untouched) Upload(string, *tensor.Tensor) error { return u.touched("Upload") }
func (u untouched) UploadFrom(string, tensor.DType, []int, io.Reader) error {
	return u.touched("UploadFrom")
}
func (u untouched) Delete(string) error           { return u.touched("Delete") }
func (u untouched) List(string) ([]string, error) { return nil, u.touched("List") }
func (u untouched) Rename(string, string) error   { return u.touched("Rename") }

// untouchedAssembler is an untouched store that could assemble, at a
// network address of its own.
type untouchedAssembler struct {
	untouched
	addr string
}

func (u untouchedAssembler) Address() string { return u.addr }
func (u untouchedAssembler) Assemble(context.Context, []store.AssembleItem) (store.AssembleStats, error) {
	return store.AssembleStats{}, u.touched("Assemble")
}

// The program routes every assignment of a plan to its destination
// without touching a store: each assignment once, under its device, in
// plan order; pulled exactly when the destination assembles and every
// range comes from a store with an address (so a no-op on an assembling
// store is a link, and a checkpoint range is built here); the commit
// list is the destinations with something to stage, and the departing
// devices are the source's devices the target does not use.
func TestProgramRoutesEveryAssignmentOnce(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	tp2 := parallel.Config{TP: 2, PP: 1, DP: 1}
	tp2pp2 := parallel.Config{TP: 2, PP: 2, DP: 1}
	from := buildPTC(t, m, tp2, allocFrom(0, 2))
	grown := buildPTC(t, m, tp2pp2, allocFrom(0, 4))
	// The grown target with device 4 in the allocation and nothing on it.
	idle := core.NewPTC(grown.Name, append(slices.Clone(grown.Devices), 4))
	for _, meta := range grown.Tensors {
		idle.AddTensor(meta)
	}
	for _, d := range grown.Devices {
		idle.AssignAll([]cluster.DeviceID{d}, grown.Place[d])
	}
	plan := func(from, to *core.PTC, opts core.PlanOptions) *core.Plan {
		p, err := core.GeneratePlan(from, to, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	scenarios := []struct {
		name      string
		plan      *core.Plan
		departing []cluster.DeviceID
	}{
		{"grow", plan(from, grown, core.PlanOptions{}), nil},
		{"grow onto an idle device", plan(from, idle, core.PlanOptions{}), nil},
		{"shrink", plan(grown, from, core.PlanOptions{}), []cluster.DeviceID{2, 3}},
		{"redeploy", plan(from, buildPTC(t, m, tp2, allocFrom(2, 2)), core.PlanOptions{}), []cluster.DeviceID{0, 1}},
		{"fail-stop", plan(from.WithoutDevices(0), buildPTC(t, m, tp2, cluster.Allocation{1, 2}),
			core.PlanOptions{StorageFallback: true}), nil},
		{"identity", plan(from, from, core.PlanOptions{}), nil},
	}
	storage, links, builtFromStorage := 0, 0, 0
	for _, sc := range scenarios {
		if fromStorage, _ := fetchKinds(sc.plan); fromStorage {
			storage++
		}
		devs := append(slices.Clone(sc.plan.From.Devices), sc.plan.To.Devices...)
		for _, assembling := range []string{"every", "even", "no"} {
			label := fmt.Sprintf("%s, %s store assembling", sc.name, assembling)
			stores := map[cluster.DeviceID]store.Access{}
			for _, d := range devs {
				if assembling == "every" || assembling == "even" && d%2 == 0 {
					stores[d] = untouchedAssembler{untouched{t}, fmt.Sprintf("fake://dev%d", d)}
				} else {
					stores[d] = untouched{t}
				}
			}
			l, b := checkProgram(t, label, sc.plan, stores, newProgram("prog", sc.plan, stores), sc.departing)
			links += l
			builtFromStorage += b
		}
	}
	if storage != 1 || links == 0 || builtFromStorage == 0 {
		t.Fatalf("%d scenarios read from the checkpoint (want the fail-stop one), %d links, %d items built from it",
			storage, links, builtFromStorage)
	}
}

// checkProgram checks prog against plan and stores, and returns how many
// no-ops it links and how many checkpoint reads it builds here.
func checkProgram(t *testing.T, label string, plan *core.Plan, stores map[cluster.DeviceID]store.Access,
	prog *program, departing []cluster.DeviceID) (links, builtFromStorage int) {
	t.Helper()
	type key struct {
		dev cluster.DeviceID
		id  core.TensorID
	}
	all := plan.AllAssignments()
	index := map[key]int{}
	for i, a := range all {
		index[key{a.Device, a.Tensor}] = i
	}
	pulls := func(a core.Assignment) bool {
		if _, ok := stores[a.Device].(store.Assembler); !ok {
			return false
		}
		for _, f := range a.Fetch {
			if _, ok := stores[f.Src.Device].(store.Addressable); !ok || f.Src.Kind != core.FromDevice {
				return false
			}
		}
		return true
	}
	if len(prog.dests) != len(plan.To.Devices) {
		t.Fatalf("%s: %d destinations for target devices %v", label, len(prog.dests), plan.To.Devices)
	}
	seen := make([]int, len(all))
	var commit []cluster.DeviceID
	for g, d := range prog.dests {
		if d.dev != plan.To.Devices[g] {
			t.Fatalf("%s: destination %d is dev %d, want dev %d", label, g, d.dev, plan.To.Devices[g])
		}
		if len(d.items) != len(d.pull) {
			t.Fatalf("%s: dev %d pulls %d assignments with %d items", label, d.dev, len(d.pull), len(d.items))
		}
		for _, list := range [][]core.Assignment{d.pull, d.build} {
			last := -1
			for _, a := range list {
				i, ok := index[key{a.Device, a.Tensor}]
				if !ok || a.Device != d.dev {
					t.Fatalf("%s: dev %d lists %s of dev %d", label, d.dev, a.Tensor, a.Device)
				}
				if i <= last {
					t.Fatalf("%s: dev %d lists %s out of plan order", label, d.dev, a.Tensor)
				}
				last = i
				seen[i]++
			}
		}
		for i, a := range d.pull {
			if !pulls(a) {
				t.Fatalf("%s: dev %d pulls %s, which its store cannot", label, d.dev, a.Tensor)
			}
			it := d.items[i]
			if it.Path != stagingPath("prog", a.Device, a.Tensor) {
				t.Fatalf("%s: item %s stages at %s", label, a.Tensor, it.Path)
			}
			if a.IsNoop() != (it.Link != "") || a.IsNoop() && (it.Link != ModelPath("prog", a.Device, a.Tensor) || it.Fetch != nil) {
				t.Fatalf("%s: item %+v for assignment %s (noop %v)", label, it, a.Tensor, a.IsNoop())
			}
			if a.IsNoop() {
				links++
			}
		}
		for _, a := range d.build {
			if pulls(a) {
				t.Fatalf("%s: %s is built here though dev %d can pull it", label, a.Tensor, d.dev)
			}
			if slices.ContainsFunc(a.Fetch, func(f core.Fetch) bool { return f.Src.Kind == core.FromStorage }) {
				builtFromStorage++
			}
		}
		if len(d.pull)+len(d.build) > 0 {
			commit = append(commit, d.dev)
		}
	}
	for i, n := range seen {
		if n != 1 {
			a := all[i]
			t.Fatalf("%s: assignment %s on dev %d listed %d times", label, a.Tensor, a.Device, n)
		}
	}
	if !slices.Equal(prog.commit, commit) {
		t.Fatalf("%s: commits on %v, want the destinations with items %v", label, prog.commit, commit)
	}
	if !slices.Equal(prog.departing, departing) {
		t.Fatalf("%s: departing %v, want %v", label, prog.departing, departing)
	}
	return links, builtFromStorage
}
