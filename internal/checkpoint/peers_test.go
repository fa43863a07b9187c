package checkpoint

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// Between in-process stores a save to peers moves no byte: each piece is
// the tensor its holder's store holds, kept by a device that holds no
// part of it; storage receives the manifest and the marker and no
// tensor. The checkpoint restores bit for bit under another layout, and
// the next save deletes its pieces from the stores that kept them.
func TestSaveToPeersInProcess(t *testing.T) {
	ptc, stores, golden := setup(t, parallel.Config{TP: 2, PP: 2, DP: 1}, 4)
	topo := cluster.Cloud(4)
	fs := store.NewMemFS()
	storage := store.Local{FS: fs}
	if err := SaveToPeers(context.Background(), storage, "job0", 1, ptc, topo, stores); err != nil {
		t.Fatal(err)
	}
	if err := fs.Walk("/", func(path string, st store.Stat) error {
		if st.DType != tensor.Invalid {
			t.Errorf("storage holds tensor %s", path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, "job0", 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Stores = stores
	for id, pieces := range r.Meta.Pieces {
		for _, p := range pieces {
			reg, err := tensor.ParseRegion(p.Range, nil)
			if err != nil {
				t.Fatal(err)
			}
			if p.Device == nil || slices.Contains(ptc.Holders(core.TensorID(id), reg), *p.Device) {
				t.Fatalf("piece %s of %s is on device %v, which holds it", p.Range, id, p.Device)
			}
			held, err := stores[*p.Device].Query(p.Path, nil)
			if err != nil {
				t.Fatal(err)
			}
			holder := ptc.Holders(core.TensorID(id), reg)[0]
			orig, err := stores[holder].Query(transform.ModelPath("job0", holder, core.TensorID(id)), nil)
			if err != nil || orig != held {
				t.Fatalf("piece %s of %s is not the tensor device %d holds (err %v)", p.Range, id, holder, err)
			}
		}
	}

	m := model.GPTCustom(2, 16, 2, 64, 8)
	toPTC, err := parallel.BuildPTC(m, parallel.Config{TP: 1, PP: 1, DP: 2}, alloc(2))
	if err != nil {
		t.Fatal(err)
	}
	fresh := localStores(2)
	if err := Restore(context.Background(), r, "job0", toPTC, fresh); err != nil {
		t.Fatal(err)
	}
	state, err := transform.ReadPTC("job0", toPTC, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range golden {
		if !state[id].Equal(want) {
			t.Fatalf("tensor %s restored wrong", id)
		}
	}

	if err := SaveToPeers(context.Background(), storage, "job0", 2, ptc, topo, stores); err != nil {
		t.Fatal(err)
	}
	for d, acc := range stores {
		if names, _ := acc.List(peerRoot("job0", 1)); len(names) != 0 {
			t.Fatalf("dev %d still keeps %d pieces of the step before", d, len(names))
		}
	}
}

// Between wire stores a save to peers is one /assemble per peer store,
// which pulls its pieces from the holders itself: this process reads
// no tensor and uploads none, and the checkpoint restores bit for bit.
func TestSaveToPeersOverWire(t *testing.T) {
	m := model.GPTCustom(2, 16, 2, 64, 8)
	ptc, err := parallel.BuildPTC(m, parallel.Config{TP: 2, PP: 1, DP: 2}, alloc(4))
	if err != nil {
		t.Fatal(err)
	}
	golden := goldenFor(ptc)
	ws := newWireStores(t, ptc.Devices)
	if err := transform.LoadPTC("job0", ptc, ws.stores, golden); err != nil {
		t.Fatal(err)
	}
	storage := store.Local{FS: store.NewMemFS()}
	before := ws.requests("/batch")
	if err := SaveToPeers(context.Background(), storage, "job0", 1, ptc, cluster.Cloud(4), ws.stores); err != nil {
		t.Fatal(err)
	}
	r, err := Open(storage, "job0", 1)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[cluster.DeviceID]bool{}
	for _, pieces := range r.Meta.Pieces {
		for _, p := range pieces {
			peers[*p.Device] = true
		}
	}
	// Every batch the stores served went to a peer store's pull.
	if got, want := ws.requests("/assemble"), len(peers); got != want {
		t.Fatalf("%d /assemble requests for %d peer stores", got, want)
	}
	if ws.requests("/upload-batch")+ws.requests("/upload") > len(ptc.Devices) || ws.requests("/batch")-before > len(ptc.Devices)*len(peers) {
		t.Fatalf("the save moved tensors through this process: %v", ws.reqs)
	}
	r.Stores = ws.stores
	fresh := localStores(4)
	if err := Restore(context.Background(), r, "job0", ptc, fresh); err != nil {
		t.Fatal(err)
	}
	state, err := transform.ReadPTC("job0", ptc, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range golden {
		if !state[id].Equal(want) {
			t.Fatalf("tensor %s restored wrong from wire peers", id)
		}
	}
}

// peerDevices over random placements: TP, PP and DP mixes on 1 to 16 devices
// drawn from a one-worker Cloud(4) and from multi-worker topologies. No
// piece is kept by a device that holds any part of it, unless every
// device of the topology does; pieces stay in the allocation while it
// has a device that holds no part of them; and whenever the
// allocation has a device on another worker than the holder's that
// holds no part of the piece, the piece goes to another worker.
func TestPeersPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := model.GPTCustom(4, 16, 4, 64, 8)
	topos := []*cluster.Topology{cluster.Cloud(4), cluster.OnPrem16(), cluster.Cloud(16), cluster.Cloud32()}
	checked := 0
	for trial := 0; trial < 400; trial++ {
		topo := topos[trial%len(topos)]
		n := 1 + rng.Intn(min(16, topo.NumDevices()))
		var cfg parallel.Config
		for {
			cfg = parallel.Config{TP: 1 << rng.Intn(3), PP: 1 << rng.Intn(3)}
			if n%(cfg.TP*cfg.PP) == 0 {
				cfg.DP = n / (cfg.TP * cfg.PP)
				break
			}
		}
		perm := rng.Perm(topo.NumDevices())[:n]
		al := make(cluster.Allocation, n)
		for i, d := range perm {
			al[i] = cluster.DeviceID(d)
		}
		ptc, err := parallel.BuildPTC(m, cfg, al)
		if err != nil {
			continue // a split the model does not allow
		}
		peers, err := peerDevices(topo, ptc)
		if err != nil {
			t.Fatalf("%v on %v of %s: %v", cfg, al, topo.Name, err)
		}
		for g, subs := range ptc.Unique() {
			from := ptc.Devices[g]
			for i, s := range subs {
				to := peers[g][i]
				holders := ptc.Holders(s.Tensor, s.Region)
				if slices.Contains(holders, to) && len(holders) < topo.NumDevices() || int(to) < 0 || int(to) >= topo.NumDevices() {
					t.Fatalf("%v on %v of %s: %s%v of dev %d kept by dev %d, holders %v",
						cfg, al, topo.Name, s.Tensor, s.Region, from, to, holders)
				}
				away := false
				for _, d := range ptc.Devices {
					away = away || topo.WorkerOf(d) != topo.WorkerOf(from) && !slices.Contains(holders, d)
				}
				if away && topo.WorkerOf(to) == topo.WorkerOf(from) {
					t.Fatalf("%v on %v of %s: %s%v of dev %d kept on its own worker by dev %d",
						cfg, al, topo.Name, s.Tensor, s.Region, from, to)
				}
				if !away && !slices.Contains(ptc.Devices, to) && len(holders) < len(ptc.Devices) {
					t.Fatalf("%v on %v of %s: %s%v of dev %d kept outside the allocation by dev %d",
						cfg, al, topo.Name, s.Tensor, s.Region, from, to)
				}
				checked++
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d pieces placed: the draw is too narrow", checked)
	}
}
