package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tenplex/internal/api"
	"tenplex/internal/store"
)

// client is a minimal bearer-token client for the coordd REST API.
type client struct {
	base  string
	token string
	t     *testing.T
}

func (c *client) do(method, path string, body any, out any) (int, string) {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatalf("request: %v", err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func (c *client) submit(req api.SubmitRequest) string {
	c.t.Helper()
	var resp api.SubmitResponse
	code, raw := c.do("POST", "/v1/jobs", req, &resp)
	if code != http.StatusCreated {
		c.t.Fatalf("submit %s: %d %s", req.Name, code, raw)
	}
	return resp.ID
}

// jobStatus is the subset of the job snapshot the harness asserts on
// (decoded structurally so the subprocess mode exercises the wire
// schema, not shared Go types).
type jobStatus struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Alloc    []int  `json:"alloc"`
	Resizes  int    `json:"resizes"`
	Deployed bool   `json:"deployed"`
	Verified bool   `json:"verified"`
}

func (c *client) job(id string) jobStatus {
	c.t.Helper()
	var st jobStatus
	code, raw := c.do("GET", "/v1/jobs/"+id, nil, &st)
	if code != http.StatusOK {
		c.t.Fatalf("get %s: %d %s", id, code, raw)
	}
	return st
}

func (c *client) waitState(id, want string, timeout time.Duration) jobStatus {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := c.job(id)
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *client) waitRunning(id string, timeout time.Duration) jobStatus {
	return c.waitState(id, "running", timeout)
}

// waitDeployed waits for a running job's state to be on the store
// servers. "running" does not say so: a job runs from the moment it is
// admitted and leased, and its deploy follows on the execution plane.
func (c *client) waitDeployed(id string, timeout time.Duration) jobStatus {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := c.job(id)
		if st.Deployed {
			return st
		}
		if st.State != "running" || time.Now().After(deadline) {
			c.t.Fatalf("job %s is %q and not deployed", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// driveWorkload is the shared multi-job scenario, sized for a 4-device
// cluster: submit a job and fail one of its devices while it owns
// spare capacity (recovery must keep it alive to a bit-verified
// completion), then pile on three more jobs across two more model
// families so the survivors contend for the 3 healthy devices, scale
// one up and one down, cancel a long-runner, and assert terminal
// states. Returns all job IDs and the canceled job's ID.
func driveWorkload(t *testing.T, c *client, stores []*store.Client) (ids []string, canceled string) {
	a := c.submit(api.SubmitRequest{Name: "a", Model: api.ModelSpec{Preset: "gpt-small"},
		GPUs: 2, MinGPUs: 1, MaxGPUs: 4, DurationMin: 1000})
	stA := c.waitRunning(a, 20*time.Second)
	if len(stA.Alloc) < 2 {
		// Alone on the cluster, a holds at least its requested two
		// devices (elastic expansion may have grown it further).
		t.Fatalf("job %s running on %v, want >= 2 devices", a, stA.Alloc)
	}
	// The 201 said admitted and leased; the bytes follow. Once the job
	// reports deployed its device trees are on the store servers (looked
	// for until seen whole: the scale-out that follows the deploy swaps
	// each device's tree in with a delete and a rename).
	c.waitDeployed(a, 20*time.Second)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		shards, err := committedShards(stores, a)
		if err == nil && shards > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s reports deployed with %d device trees on the store servers (err %v)", a, shards, err)
		}
	}

	// Fail one of a's devices while survivors exist: the coordinator
	// must replan onto the remaining healthy devices, and the restored
	// state must still pass bit-verification at completion.
	failed := stA.Alloc[0]
	if code, raw := c.do("POST", "/v1/cluster/fail", api.FailRequest{Device: failed}, nil); code != http.StatusOK {
		t.Fatalf("fail device %d: %d %s", stA.Alloc[0], code, raw)
	}

	// Pile on contention: three more jobs onto the 3 healthy devices.
	b := c.submit(api.SubmitRequest{Name: "b", Model: api.ModelSpec{Preset: "gpt-tiny"},
		GPUs: 2, MinGPUs: 1, MaxGPUs: 2, DurationMin: 600})
	cc := c.submit(api.SubmitRequest{Name: "c", Model: api.ModelSpec{Preset: "moe-small"},
		GPUs: 1, MinGPUs: 1, MaxGPUs: 2, DurationMin: 100000})
	d := c.submit(api.SubmitRequest{Name: "d", Model: api.ModelSpec{Preset: "gpt-tiny"},
		GPUs: 1, MinGPUs: 1, MaxGPUs: 2, DurationMin: 500})
	ids = []string{a, b, cc, d}

	// Scale a up (elastic growth happens as capacity frees) and b down
	// to one device once it runs.
	if code, raw := c.do("POST", "/v1/jobs/"+a+"/scale", api.ScaleRequest{GPUs: 3}, nil); code != http.StatusOK {
		t.Fatalf("scale %s up: %d %s", a, code, raw)
	}
	c.waitRunning(b, 20*time.Second)
	if code, raw := c.do("POST", "/v1/jobs/"+b+"/scale", api.ScaleRequest{GPUs: 1}, nil); code != http.StatusOK {
		t.Fatalf("scale %s down: %d %s", b, code, raw)
	}

	// Cancel the long-runner.
	if code, raw := c.do("POST", "/v1/jobs/"+cc+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel %s: %d %s", cc, code, raw)
	}
	c.waitState(cc, "canceled", 20*time.Second)

	for _, id := range []string{a, b, d} {
		c.waitState(id, "completed", 60*time.Second)
		// Bit-verification runs on the job's execution chain and lands
		// shortly after the completion event in wall mode; poll for it
		// rather than asserting at the completion instant.
		deadline := time.Now().Add(15 * time.Second)
		for !c.job(id).Verified {
			if time.Now().After(deadline) {
				t.Fatalf("job %s completed without store-side bit-verification", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Cluster summary agrees.
	var cs struct {
		Completed int `json:"completed"`
		Canceled  int `json:"canceled"`
		Devices   int `json:"devices"`
	}
	if code, raw := c.do("GET", "/v1/cluster", nil, &cs); code != http.StatusOK {
		t.Fatalf("cluster: %d %s", code, raw)
	}
	if cs.Completed < 3 || cs.Canceled != 1 {
		t.Fatalf("cluster counts: %+v", cs)
	}
	return ids, cc
}

// checkEvents reads the NDJSON stream and requires the workload's
// milestones: submit/admit/complete for done, and the cancel event.
func checkEvents(t *testing.T, c *client, done []string, canceled string) {
	t.Helper()
	req, err := http.NewRequest("GET", c.base+"/v1/events", nil)
	if err != nil {
		t.Fatalf("events request: %v", err)
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	want := map[string]bool{}
	for _, id := range done {
		if id == canceled {
			want[id+"/cancel"] = true
			continue
		}
		want[id+"/submit"] = true
		want[id+"/admit"] = true
		want[id+"/complete"] = true
	}
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(20 * time.Second)
	for len(want) > 0 && time.Now().Before(deadline) && sc.Scan() {
		var e struct {
			Job  string `json:"job"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON %q: %v", sc.Text(), err)
		}
		delete(want, e.Job+"/"+e.Kind)
	}
	if len(want) > 0 {
		t.Fatalf("event stream missing milestones: %v", want)
	}
}

// committedShards counts the per-device trees of job id's committed
// model state across the store servers; a tree that is listed and then
// turns out empty or gone is an error (while a reconfiguration commits,
// a passing one).
func committedShards(stores []*store.Client, id string) (int, error) {
	root := "/job/" + id + "/model"
	shards := 0
	for _, sc := range stores {
		names, err := sc.List(root)
		if err != nil {
			continue // this device holds no shard of the job's placement
		}
		// List returns child names: per-device trees like "dev3/".
		for _, name := range names {
			if !strings.HasPrefix(name, "dev") {
				return shards, fmt.Errorf("store listing for %s has unexpected entry %q", id, name)
			}
			files, err := sc.List(root + "/" + strings.TrimSuffix(name, "/"))
			if err != nil || len(files) == 0 {
				return shards, fmt.Errorf("job %s: committed device tree %s/%s is empty (err=%v)", id, root, name, err)
			}
			shards++
		}
	}
	return shards, nil
}

// checkStoreState asserts that the finished jobs, completed or
// canceled, left neither a model tree nor a checkpoint step on the store
// servers — the store of a device that failed under a job included: the
// coordinator deletes both on the job's chain once the job is over,
// shortly after its outcome, so it polls for them to go.
func checkStoreState(t *testing.T, stores []*store.Client, finished []string) {
	t.Helper()
	for _, id := range finished {
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			var left []string
			for _, sc := range stores {
				for _, tree := range []string{"/model", "/ckpt"} {
					names, _ := sc.List("/job/" + id + tree)
					left = append(left, names...)
				}
			}
			if len(left) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("finished job %s still holds %v on the store servers", id, left)
			}
		}
	}
}

// checkMetrics pulls /v1/metrics and sanity-checks the submit-latency
// summary; requirePlans additionally demands coordinator plan
// accounting (workloads whose jobs all cancel may commit none).
func checkMetrics(t *testing.T, c *client, minSubmits int64, requirePlans bool) api.SubmitLatency {
	t.Helper()
	var mr api.MetricsResponse
	if code, raw := c.do("GET", "/v1/metrics", nil, &mr); code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, raw)
	}
	if mr.SubmitLatency.Count < minSubmits {
		t.Fatalf("submit latency count %d < %d", mr.SubmitLatency.Count, minSubmits)
	}
	if mr.SubmitLatency.P99Ns < mr.SubmitLatency.P50Ns || mr.SubmitLatency.P50Ns <= 0 {
		t.Fatalf("submit latency quantiles: %+v", mr.SubmitLatency)
	}
	found := false
	for _, row := range mr.Metrics {
		if row.Name == "coord.plans" && row.Int > 0 {
			found = true
		}
	}
	if requirePlans && !found {
		t.Fatalf("metrics missing coordinator accounting (coord.plans)")
	}
	return mr.SubmitLatency
}

func fmtLatency(l api.SubmitLatency) string {
	return fmt.Sprintf("submits=%d p50=%s p99=%s", l.Count,
		time.Duration(l.P50Ns), time.Duration(l.P99Ns))
}
