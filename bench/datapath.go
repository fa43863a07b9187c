package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/core"
	"tenplex/internal/model"
	"tenplex/internal/parallel"
	"tenplex/internal/store"
	"tenplex/internal/tensor"
	"tenplex/internal/transform"
)

// step is one allocation change of a datapath workload.
type step struct {
	kind  string
	cfg   parallel.Config
	alloc cluster.Allocation
	// fail lists devices that die before the step: their model tree is
	// wiped (untimed, it is the failure) and the plan recovers without
	// them, reading lost ranges back from the checkpoint.
	fail []cluster.DeviceID
}

// datapathSpec describes a workload that moves real bytes: where the
// job is first deployed and the changes it then goes through.
type datapathSpec struct {
	name  string
	why   string
	wire  bool // device stores are store.Servers on loopback TCP
	model func() *model.Model
	first step
	steps []step
}

func devs(ids ...int) cluster.Allocation {
	out := make(cluster.Allocation, len(ids))
	for i, d := range ids {
		out[i] = cluster.DeviceID(d)
	}
	return out
}

const numDevices = 8

func wireMigrate(name, why string, m func() *model.Model) datapathSpec {
	return datapathSpec{
		name: name, why: why, wire: true, model: m,
		first: step{kind: "deploy", cfg: parallel.Config{TP: 4, PP: 1, DP: 1}, alloc: devs(0, 1, 2, 3)},
		steps: []step{{kind: "migrate", cfg: parallel.Config{TP: 1, PP: 1, DP: 4}, alloc: devs(4, 5, 6, 7)}},
	}
}

var datapathSpecs = []datapathSpec{
	// 148 tensors, 1.4 MB of state: request-overhead-bound.
	wireMigrate("wire-migrate-small",
		"148 small tensors over loopback HTTP: request overhead (store client/server, frame codec, JSON /batch, net/http) dominates, byte copying does not",
		func() *model.Model { return model.GPTCustom(12, 48, 4, 192, 32) }),
	// 52 tensors, 13.7 MB of state: byte-bound.
	wireMigrate("wire-migrate-large",
		"52 large tensors over loopback HTTP: bytes dominate (staging re-upload, scatter-write, CRC, MemFS copies), per-request overhead is a small share",
		func() *model.Model { return model.GPTCustom(4, 256, 4, 1024, 32) }),
	{
		name:  "local-elastic-cycle",
		why:   "no wire at all: transform, tensor.CopyRegion, MemFS and checkpoint do the work through split, merge, replicate, move and a checkpoint fallback, so wire changes predict no move here",
		model: func() *model.Model { return model.GPTCustom(4, 256, 4, 1024, 32) },
		first: step{kind: "deploy", cfg: parallel.Config{TP: 2, PP: 2, DP: 1}, alloc: devs(0, 1, 2, 3)},
		steps: []step{
			{kind: "scale_out", cfg: parallel.Config{TP: 2, PP: 2, DP: 2}, alloc: devs(0, 1, 2, 3, 4, 5, 6, 7)},
			{kind: "reshard", cfg: parallel.Config{TP: 4, PP: 2, DP: 1}, alloc: devs(0, 1, 2, 3, 4, 5, 6, 7)},
			{kind: "scale_in", cfg: parallel.Config{TP: 2, PP: 2, DP: 1}, alloc: devs(0, 1, 2, 3)},
			{kind: "redeploy", cfg: parallel.Config{TP: 2, PP: 2, DP: 1}, alloc: devs(4, 5, 6, 7)},
			// Device 5 dies with no replica (DP 1): device 0 takes its
			// rank and its ranges come back from the checkpoint.
			{kind: "failstop", cfg: parallel.Config{TP: 2, PP: 2, DP: 1}, alloc: devs(4, 0, 6, 7), fail: devs(5)},
		},
	},
}

// datapath is one pass of a datapath workload.
type datapath struct {
	spec  datapathSpec
	seed  int64
	tr    *tracer
	model *model.Model
	topo  *cluster.Topology
	init  map[core.TensorID]*tensor.Tensor

	stores  map[cluster.DeviceID]store.Access
	servers []*store.Server
	clients []*store.Client
	closers []func() error

	// plans are the plans of the set-up operation, one per step; the
	// copy-floor probe replays their fetches memory to memory.
	plans   []*core.Plan
	floorNs int64
	// probe reads the machine's memory speed between jobs; lastProbe is
	// its reading after the previous job, which is also the reading before
	// this one.
	probe     *memProbe
	lastProbe float64
	// payload is, per traced iteration, the bytes the transformer says it
	// fetched from device stores; reconcile checks the client wrapper saw
	// exactly that many.
	payload map[int32]int64
	// corrupt, set by tests only, damages stored state between the last
	// commit and verify of iteration i.
	corrupt func(i int, d *datapath)
}

const benchJob = "bench"

// newDatapath makes the pass and, outside the set-up clock, its
// measuring instrument.
func newDatapath(spec datapathSpec, seed int64, tr *tracer) *datapath {
	return &datapath{spec: spec, seed: seed, tr: tr, payload: map[int32]int64{}, probe: sharedMemProbe()}
}

// storeTransport is the transport store.Client uses when its HTTP field
// is nil (store.defaultTransport, unexported). The traced pass has to
// set HTTP to get its round tripper in, so it rebuilds the same pool
// settings underneath; if store changes them this must follow.
func storeTransport() http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0
	t.MaxIdleConnsPerHost = 64
	return t
}

func (d *datapath) setup() error {
	d.model = d.spec.model()
	d.topo = cluster.OnPrem16()
	d.init = initState(d.model, d.seed)
	d.stores = map[cluster.DeviceID]store.Access{}
	var rt http.RoundTripper
	if d.spec.wire && d.tr != nil {
		inner := storeTransport()
		d.closers = append(d.closers, func() error { inner.(*http.Transport).CloseIdleConnections(); return nil })
		rt = &tracedTransport{inner: inner, tr: d.tr}
	}
	for i := 0; i < numDevices; i++ {
		var acc store.Access
		if d.spec.wire {
			srv := store.NewServer(store.NewMemFS())
			addr, err := d.listen(srv)
			if err != nil {
				return err
			}
			// Retry as tenplex-coordd configures its store clients.
			c := &store.Client{Base: "http://" + addr, Retry: &store.RetryPolicy{MaxAttempts: 3}}
			if rt != nil {
				c.HTTP = &http.Client{Transport: rt}
			}
			d.servers = append(d.servers, srv)
			d.clients = append(d.clients, c)
			acc = c
		} else {
			acc = store.Local{FS: store.NewMemFS()}
		}
		if d.tr != nil {
			acc = traceAccess(acc, d.tr)
		}
		d.stores[cluster.DeviceID(i)] = acc
	}
	// One whole operation before the clock starts: connections are
	// dialled, lazy initialisation is done, and the result is checked.
	if err := d.op(-1, series{}); err != nil {
		return fmt.Errorf("%s: set-up operation: %w", d.spec.name, err)
	}
	if d.tr != nil {
		d.floorNs = copyFloor(d.plans)
	}
	return nil
}

// listen serves srv on an ephemeral loopback port: through its own
// Listen untraced, behind the timing handler traced.
func (d *datapath) listen(srv *store.Server) (string, error) {
	if d.tr == nil {
		addr, closeFn, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return "", err
		}
		d.closers = append(d.closers, closeFn)
		return addr, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: tracedHandler(srv, d.tr)}
	go func() { _ = hs.Serve(ln) }() // returns when close() closes hs
	d.closers = append(d.closers, hs.Close)
	return ln.Addr().String(), nil
}

func (d *datapath) close() error {
	var first error
	for _, c := range d.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	d.closers = nil
	return first
}

// serverBytes sums the store servers' payload counters; both are 0
// without a wire.
func (d *datapath) serverBytes() (served, received int64) {
	for _, s := range d.servers {
		served += s.BytesServed()
		received += s.BytesReceived()
	}
	return served, received
}

// op runs one job: wipe, deploy, every step, verify. Only a fully
// successful, bit-verified job contributes samples; anything else is
// returned as the operation's failure.
func (d *datapath) op(i int, s series) error {
	probeBefore := d.lastProbe
	if probeBefore == 0 {
		probeBefore = d.probe.seconds()
	}
	for _, acc := range d.stores {
		_ = acc.Delete("/job/" + benchJob) // absent before the first job
	}
	d.tr.setIter(i)
	rt := newJobRT(benchJob, d.model, d.topo, d.stores, d.tr)
	var (
		m0, m1               runtime.MemStats
		deploy, verify       time.Duration
		reconfig             time.Duration
		copied, planBytes    int64
		wire, devicePayload  int64
		plans                []*core.Plan
		layer                = map[string]float64{} // per-layer counters, summed over the job's steps
		jobServed, jobRecved = d.serverBytes()
	)
	_, err := d.tr.phase(spanIter, func() (err error) {
		if deploy, err = rt.deploy(d.spec.first.cfg, d.spec.first.alloc, d.init); err != nil {
			return err
		}
		for _, st := range d.spec.steps {
			for _, dev := range st.fail {
				_ = d.stores[dev].Delete(transform.ModelRoot(benchJob))
			}
			// The counters are read outside the step's clock.
			runtime.ReadMemStats(&m0)
			served0, received0 := d.serverBytes()
			rc, err := rt.reconfigure(st.cfg, st.alloc, st.fail)
			if err != nil {
				return fmt.Errorf("%s: %w", st.kind, err)
			}
			served1, received1 := d.serverBytes()
			runtime.ReadMemStats(&m1)
			wire += served1 - served0 + received1 - received0
			reconfig += rc.total
			copied += rc.stats.BytesCopied
			planBytes += rc.stats.PlanBytes()
			devicePayload += rc.stats.PeerBytes + rc.stats.LocalBytes
			plans = append(plans, rc.plan)
			layer["allocs"] += float64(m1.Mallocs - m0.Mallocs)
			layer["alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			layer["gc.cycles"] += float64(m1.NumGC - m0.NumGC)
			layer["gc.pause_ms"] += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
			layer["step."+st.kind+".ms"] += ms(rc.total)
			layer["transform.assignments"] += float64(rc.stats.Assignments)
			layer["transform.noops"] += float64(rc.stats.Noops)
			layer["transform.local_bytes"] += float64(rc.stats.LocalBytes)
			layer["transform.peer_bytes"] += float64(rc.stats.PeerBytes)
			layer["transform.storage_bytes"] += float64(rc.stats.StorageBytes)
			layer["transform.bytes_copied"] += float64(rc.stats.BytesCopied)
			layer["transform.alloc_bytes"] += float64(rc.stats.AllocBytes)
			layer["core.plan.assignments"] += float64(rc.planStats.Assignments)
			layer["core.plan.fetches"] += float64(rc.planStats.Fetches)
			layer["core.plan.moved_bytes"] += float64(rc.planStats.MovedBytes)
		}
		if d.corrupt != nil {
			d.corrupt(i, d)
		}
		verify, err = rt.verify(d.init)
		return err
	})
	d.lastProbe = d.probe.seconds()
	if err != nil {
		return err
	}
	if i < 0 {
		d.plans = plans
		return nil
	}
	if d.tr != nil {
		d.payload[int32(i)] = devicePayload
	}
	n := float64(len(d.spec.steps))
	perReconfig := reconfig.Seconds() / n
	// The gated timings are wall seconds divided by how much slower than
	// the reference the memory was around this job (see memProbe); the
	// wall.* layer metrics keep the seconds as they passed.
	probe := (probeBefore + d.lastProbe) / 2
	slowdown := probe / refProbeSeconds
	s.add("mem.copy_probe_ms", probe*1e3)
	s.add("deploy_s", deploy.Seconds()/slowdown)
	s.add("reconfig_s", perReconfig/slowdown)
	s.add("verify_s", verify.Seconds()/slowdown)
	s.add("wall.deploy_ms", ms(deploy))
	s.add("wall.reconfig_ms", perReconfig*1e3)
	s.add("wall.verify_ms", ms(verify))
	s.add("copy_amp", float64(copied)/float64(planBytes))
	s.add("allocs_per_reconfig", layer["allocs"]/n)
	s.add("alloc_mb_per_reconfig", layer["alloc_mb"]/n)
	s.add("state_mb_per_s", float64(d.model.StateBytes())/1e6/perReconfig)
	if d.spec.wire {
		s.add("wire_amp", float64(wire)/float64(planBytes))
	}
	delete(layer, "allocs")
	delete(layer, "alloc_mb")
	served, received := d.serverBytes()
	layer["store.server.bytes_served"] = float64(served - jobServed)
	layer["store.server.bytes_received"] = float64(received - jobRecved)
	for name, v := range layer {
		s.add(name, v)
	}
	return nil
}

func (d *datapath) finish(s series) error {
	var retries int64
	for _, c := range d.clients {
		retries += c.Stats.Retries.Load()
	}
	s.add("store.client.retries", float64(retries))
	return nil
}

func (d *datapath) reconcile(spans []span) []string { return reconcile(spans, d.payload) }

func (d *datapath) layers(spans []span, s series, out map[string]float64) {
	sampleLayers(s, out)
	spanLayers(spans, d.tr, out)
	floor := float64(d.floorNs) / 1e6
	out["tensor.copy_floor_ms"] = floor
	if floor > 0 {
		// wall.reconfig_ms is per reconfiguration, the floor per job.
		out["reconfig_floor_ratio"] = median(s["wall.reconfig_ms"]) * float64(len(d.spec.steps)) / floor
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memProbe measures what the machine's memory gives this process at the
// moment, by the two access patterns a tensor move is made of: one
// streaming copy of memProbeBytes between two buffers too large for a
// core's private cache, then memProbeChunks copies of memProbeChunk bytes
// between scattered places of the same buffers, as the row-by-row copy of
// a split or merged tensor does. On the shared host the benchmark runs
// on, the streaming part swings by a fifth and the scattered part by a
// third within a minute as other tenants use the memory system, a
// processor-only loop stays within 3 %, and the wall time of the three
// datapath workloads follows the probe (README.md, "Memory-speed
// normalisation"). The probe is the builtin copy on buffers of its own,
// so no change to the repository can move it.
type memProbe struct {
	src, dst []byte
	offs     []int // where the scattered copies read; they write at the next entry
}

const (
	memProbeBytes  = 16 << 20
	memProbeChunks = 8192
	memProbeChunk  = 1024
	// refProbeSeconds is a round value in the middle of the probe's
	// readings on the reference box (3.2 to 6 ms). A datapath timing is
	// reported as wall × refProbeSeconds / probe: seconds at the reference
	// memory speed.
	refProbeSeconds = 5e-3
)

// sharedMemProbe is the process's one probe. Its scattered offsets come
// from a fixed seed: the probe is an instrument, not an input.
var sharedMemProbe = sync.OnceValue(func() *memProbe {
	p := &memProbe{src: make([]byte, memProbeBytes), dst: make([]byte, memProbeBytes)}
	for i := range p.src { // untouched pages would all be the one zero page
		p.src[i] = byte(i)
	}
	copy(p.dst, p.src) // fault dst in
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < memProbeChunks; i++ {
		p.offs = append(p.offs, rng.Intn(memProbeBytes-memProbeChunk)&^63)
	}
	return p
})

func (p *memProbe) seconds() float64 {
	t0 := time.Now()
	copy(p.dst, p.src)
	prev := p.offs[len(p.offs)-1]
	for _, o := range p.offs {
		copy(p.dst[prev:prev+memProbeChunk], p.src[o:o+memProbeChunk])
		prev = o
	}
	return time.Since(t0).Seconds()
}

// copyFloor is the least one job's reconfigurations could cost: every
// fetch of every plan done once as a tensor.CopyRegion between buffers
// already in memory, nothing else. It returns the median of five timed
// replays, in ns. Buffers are allocated outside the clock.
func copyFloor(plans []*core.Plan) int64 {
	type cp struct {
		dst, src         *tensor.Tensor
		dstReg, srcLocal tensor.Region
	}
	var cps []cp
	srcs := map[string]*tensor.Tensor{}
	for _, p := range plans {
		for _, a := range p.Assignments {
			dt := p.To.Tensors[a.Tensor].DType
			dst := tensor.New(dt, a.Region.Shape()...)
			for _, f := range a.Fetch {
				srcReg := f.Src.Region
				if srcReg == nil { // storage fetch: the range itself is the source
					srcReg = f.Want
				}
				key := fmt.Sprintf("%d/%d/%s/%s", f.Src.Kind, f.Src.Device, a.Tensor, srcReg)
				src, ok := srcs[key]
				if !ok {
					src = tensor.New(dt, srcReg.Shape()...)
					srcs[key] = src
				}
				cps = append(cps, cp{dst: dst, src: src,
					dstReg:   f.Want.Translate(a.Region.Offset()),
					srcLocal: f.Want.Translate(srcReg.Offset())})
			}
		}
	}
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for _, c := range cps {
			if _, err := tensor.CopyRegion(c.dst, c.dstReg, c.src, c.srcLocal); err != nil {
				panic(fmt.Sprintf("copy floor probe: %v", err)) // regions come from a validated plan
			}
		}
		runs = append(runs, float64(time.Since(t0)))
	}
	return int64(median(runs))
}
