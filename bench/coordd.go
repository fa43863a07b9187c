package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tenplex/internal/store"
)

// coorddPass is one pass of coordd-lifecycle: four tenplex-store
// daemons and one tenplex-coordd as real processes, driven only through
// the REST API, one job at a time. What is known about the inside comes
// from GET /v1/metrics, /proc and the stores' exit lines.
type coorddPass struct {
	seed   int64
	traced bool // the per-layer pass: also samples poll round trips and CPU
	env    *environment

	dir     string
	stores  []*daemon
	coordd  *daemon
	base    string
	clients []*store.Client
	hc      *http.Client
	pids    []int

	jobs    int // jobs submitted to this coordd so far
	prev    coorddMetrics
	rssMB   float64 // coordd VmHWM once rssAfterJobs jobs have verified
	pollRTT []float64
	cpu0    [3]float64 // coordd, stores, bench at the first timed job
	rss0    float64
	timed   int
	stopped bool
}

const (
	coorddToken = "bench-token"
	coorddStore = 4
	// rssAfterJobs is the job count at which coordd's peak RSS is read,
	// set-up and warm-up jobs included: its heap grows with every job, so
	// the reading is only comparable at a fixed count. A run that ends
	// earlier reports the reading after its last job.
	rssAfterJobs = 110
	pollEvery    = 2 * time.Millisecond
	jobTimeout   = 30 * time.Second
)

func newCoorddPass(seed int64, tr *tracer, env *environment) *coorddPass {
	return &coorddPass{seed: seed, traced: tr != nil, env: env}
}

func (c *coorddPass) setup() error {
	if err := c.env.buildDaemons(); err != nil {
		return err
	}
	dir, err := c.env.scratch()
	if err != nil {
		return err
	}
	c.dir = dir
	env := append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(c.env.gomaxprocs))
	var urls []string
	for i := 0; i < coorddStore; i++ {
		d, err := startDaemon(filepath.Join(c.env.binDir, "tenplex-store"), env, "-addr", "127.0.0.1:0")
		if err != nil {
			return err
		}
		c.stores = append(c.stores, d)
		c.pids = append(c.pids, d.pid())
		urls = append(urls, "http://"+d.bound)
		c.clients = append(c.clients, &store.Client{Base: "http://" + d.bound})
	}
	c.coordd, err = startDaemon(filepath.Join(c.env.binDir, "tenplex-coordd"), env,
		"-addr", "127.0.0.1:0", "-devices", strconv.Itoa(coorddStore),
		"-stores", strings.Join(urls, ","), "-wall-scale", "1s",
		"-auth", "bench:"+coorddToken, "-event-log", filepath.Join(dir, "events.ndjson"))
	if err != nil {
		return err
	}
	c.pids = append(c.pids, c.coordd.pid())
	c.base = "http://" + c.coordd.bound
	c.hc = &http.Client{Timeout: jobTimeout}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := c.hc.Get(c.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // health probe body is irrelevant
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordd not healthy after 15 s (last error %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return c.op(-1, series{})
}

func (c *coorddPass) do(method, path string, body any, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+coorddToken)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return rtt, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return rtt, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return rtt, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return rtt, nil
}

// The wire schema, decoded structurally so the benchmark depends on the
// API's JSON and not on the daemon's Go types.
type submitBody struct {
	Name  string `json:"name"`
	Model struct {
		Kind   string `json:"kind"`
		Layers int    `json:"layers"`
		Hidden int    `json:"hidden"`
		Heads  int    `json:"heads"`
		Vocab  int    `json:"vocab"`
		SeqLen int    `json:"seq_len"`
	} `json:"model"`
	GPUs        int     `json:"gpus"`
	MinGPUs     int     `json:"min_gpus"`
	MaxGPUs     int     `json:"max_gpus"`
	DurationMin float64 `json:"duration_min"`
}

type jobView struct {
	State    string `json:"state"`
	Resizes  int    `json:"resizes"`
	Verified bool   `json:"verified"`
}

// coorddMetrics is the part of GET /v1/metrics the benchmark reads.
type coorddMetrics struct {
	plans, movedBytes        float64
	applies, applyNs         float64
	bytesCopied              float64
	submitP50Ns, submitP99Ns float64
}

func (c *coorddPass) scrape() (coorddMetrics, error) {
	var resp struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Int   float64 `json:"int"`
			Sum   float64 `json:"sum"`
			Count float64 `json:"count"`
		} `json:"metrics"`
		SubmitLatency struct {
			P50Ns float64 `json:"p50_ns"`
			P99Ns float64 `json:"p99_ns"`
		} `json:"submit_latency"`
	}
	var m coorddMetrics
	if _, err := c.do("GET", "/v1/metrics", nil, &resp); err != nil {
		return m, err
	}
	for _, r := range resp.Metrics {
		switch r.Name {
		case "coord.plans":
			m.plans = r.Int
		case "coord.moved_bytes":
			m.movedBytes = r.Int
		case "transform.applies":
			m.applies = r.Int
		case "transform.apply_ns":
			m.applyNs = r.Sum
		case "transform.bytes_copied":
			m.bytesCopied = r.Int
		}
	}
	m.submitP50Ns, m.submitP99Ns = resp.SubmitLatency.P50Ns, resp.SubmitLatency.P99Ns
	return m, nil
}

// op submits one job and follows it until coordd reports its final
// state bit-verified. On the idle cluster the job is admitted on two
// devices, deployed, scaled out to four (one real reconfiguration over
// the wire), checkpointed, and verified at completion.
func (c *coorddPass) op(i int, s series) error {
	var body submitBody
	body.Name = fmt.Sprintf("s%d-j%d", c.seed, c.jobs)
	body.Model.Kind, body.Model.Layers, body.Model.Hidden = "gpt", 4, 128
	body.Model.Heads, body.Model.Vocab, body.Model.SeqLen = 4, 512, 32
	body.GPUs, body.MinGPUs, body.MaxGPUs, body.DurationMin = 2, 2, 4, 0.02
	c.jobs++

	if i == 0 {
		if err := c.baseline(); err != nil {
			return err
		}
	}
	var sub struct {
		ID string `json:"id"`
	}
	start := time.Now()
	submit, err := c.do("POST", "/v1/jobs", body, &sub)
	if err != nil {
		return err
	}
	var (
		view  jobView
		polls int
		rtts  []float64
	)
	for {
		rtt, err := c.do("GET", "/v1/jobs/"+sub.ID, nil, &view)
		if err != nil {
			return err
		}
		polls++
		rtts = append(rtts, ms(rtt))
		if view.Verified {
			break
		}
		if view.State == "failed" || view.State == "canceled" {
			return fmt.Errorf("job %s ended %s", sub.ID, view.State)
		}
		if time.Since(start) > jobTimeout {
			return fmt.Errorf("job %s not verified after %s (state %s)", sub.ID, jobTimeout, view.State)
		}
		time.Sleep(pollEvery)
	}
	turnaround := time.Since(start)

	// Untimed from here: read the daemon's counters and free the job's
	// state on the stores so their heaps stay flat.
	if c.jobs == rssAfterJobs {
		if c.rssMB, err = procStatusMB(c.coordd.pid(), "VmHWM"); err != nil {
			return err
		}
	}
	now, err := c.scrape()
	if err != nil {
		return err
	}
	prev := c.prev
	c.prev = now
	for _, cl := range c.clients {
		if err := cl.Delete("/job/" + sub.ID); err != nil {
			return fmt.Errorf("clean up %s: %w", sub.ID, err)
		}
	}
	if view.Resizes != 1 || now.applies-prev.applies != 1 {
		return fmt.Errorf("job %s: %d resizes, %v applies; the workload expects exactly one reconfiguration",
			sub.ID, view.Resizes, now.applies-prev.applies)
	}
	if i < 0 {
		return nil
	}
	c.timed++
	s.add("job_turnaround_s", turnaround.Seconds())
	s.add("submit_ms", ms(submit))
	// coordd's own clock around Transformer.Apply for this job's
	// scale-out; it does not export plan or checkpoint time, so this is a
	// layer's number and not reconfig_s.
	s.add("coord.transform.apply_ms", (now.applyNs-prev.applyNs)/1e6)
	s.add("api.polls", float64(polls))
	s.add("api.submit.rtt_ms", ms(submit))
	s.add("coord.plans", now.plans-prev.plans)
	s.add("coord.moved_bytes", now.movedBytes-prev.movedBytes)
	s.add("coord.transform.bytes_copied", now.bytesCopied-prev.bytesCopied)
	if c.traced {
		c.pollRTT = append(c.pollRTT, rtts...)
	}
	return nil
}

func (c *coorddPass) cpu() (out [3]float64, err error) {
	if out[0], err = procCPUSeconds(c.coordd.pid()); err != nil {
		return out, err
	}
	for _, d := range c.stores {
		v, err := procCPUSeconds(d.pid())
		if err != nil {
			return out, err
		}
		out[1] += v
	}
	out[2], err = procCPUSeconds(os.Getpid())
	return out, err
}

// baseline reads the counters per-job deltas start from, just before
// the first timed job.
func (c *coorddPass) baseline() (err error) {
	if c.cpu0, err = c.cpu(); err != nil {
		return err
	}
	c.rss0, err = procStatusMB(c.coordd.pid(), "VmRSS")
	return err
}

// finish takes the end-of-run readings.
func (c *coorddPass) finish(s series) error {
	if c.rssMB == 0 {
		rss, err := procStatusMB(c.coordd.pid(), "VmHWM")
		if err != nil {
			return err
		}
		c.rssMB = rss
	}
	s.add("coordd_rss_mb", c.rssMB)
	if c.timed > 0 {
		cpu1, err := c.cpu()
		if err != nil {
			return err
		}
		n := float64(c.timed)
		s.add("coordd.cpu_s_per_job", (cpu1[0]-c.cpu0[0])/n)
		s.add("stores.cpu_s_per_job", (cpu1[1]-c.cpu0[1])/n)
		s.add("bench.cpu_s_per_job", (cpu1[2]-c.cpu0[2])/n)
		rss1, err := procStatusMB(c.coordd.pid(), "VmRSS")
		if err != nil {
			return err
		}
		s.add("coordd.rss_mb_per_job", (rss1-c.rss0)/n)
	}
	var storesRSS float64
	for _, d := range c.stores {
		v, err := procStatusMB(d.pid(), "VmRSS")
		if err != nil {
			return err
		}
		storesRSS += v
	}
	s.add("stores.rss_mb", storesRSS)
	return nil
}

func (c *coorddPass) stopDaemons() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	var first error
	if c.coordd != nil {
		if err := c.coordd.stop(); err != nil {
			first = fmt.Errorf("coordd exit: %w\n%s", err, c.coordd.output())
		}
	}
	for _, d := range c.stores {
		// tenplex-store exits 0 on SIGINT after printing its counters.
		if err := d.stop(); err != nil && first == nil {
			first = fmt.Errorf("store exit: %w", err)
		}
	}
	if alive := survivors(c.pids); len(alive) > 0 && first == nil {
		first = fmt.Errorf("child process groups still alive after stop: %v", alive)
	}
	return first
}

func (c *coorddPass) close() error {
	err := c.stopDaemons()
	if c.dir != "" {
		if rmErr := os.RemoveAll(c.dir); rmErr != nil && err == nil {
			err = rmErr
		}
		c.dir = ""
	}
	return err
}

func (c *coorddPass) layers(_ []span, s series, out map[string]float64) {
	sampleLayers(s, out)
	out["api.get_job.rtt_ms"] = median(c.pollRTT)
	out["api.submit.server_p50_ms"] = c.prev.submitP50Ns / 1e6
	out["api.submit.server_p99_ms"] = c.prev.submitP99Ns / 1e6
}
