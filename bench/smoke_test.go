package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"tenplex/internal/cluster"
	"tenplex/internal/transform"
)

func testEnv(t *testing.T) *environment {
	t.Helper()
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return newEnvironment(root, 2)
}

// TestSmoke keeps the benchmark building and correct: every workload
// runs a few operations untraced and traced, every operation must be
// bit-verified and every reconciliation check must hold. The
// coordd-lifecycle workload compiles and forks daemons, so -short
// leaves it out.
func TestSmoke(t *testing.T) {
	ws := workloads
	if testing.Short() {
		ws = nil
		for _, w := range workloads {
			if w.name != "coordd-lifecycle" {
				ws = append(ws, w)
			}
		}
	}
	start := time.Now()
	var out, errOut bytes.Buffer
	code := runSmoke(testEnv(t), 1, ws, &out, &errOut)
	t.Logf("\n%s%s", out.String(), errOut.String())
	if code != 0 {
		t.Fatalf("smoke run failed with code %d", code)
	}
	if n := strings.Count(out.String(), "ok  "); n != 2*len(ws) {
		t.Errorf("%d passes reported ok, want %d", n, 2*len(ws))
	}
	t.Logf("smoke took %s", time.Since(start))
	killChildren()
	children.mu.Lock()
	left := len(children.set)
	children.mu.Unlock()
	if left != 0 {
		t.Errorf("%d child processes still registered after the run", left)
	}
}

func localWorkload(t *testing.T) workloadDef {
	t.Helper()
	w, ok := findWorkload("local-elastic-cycle")
	if !ok {
		t.Fatal("no local-elastic-cycle workload")
	}
	return w
}

// An operation whose result is not bit-identical is a failed operation
// of a run that carries on, not an aborted run.
func TestCorruptionIsCountedNotFatal(t *testing.T) {
	w := localWorkload(t)
	inner := w.newPass
	w.newPass = func(seed int64, tr *tracer, env *environment) pass {
		d := inner(seed, tr, env).(*datapath)
		d.corrupt = func(i int, d *datapath) {
			if i != 1 {
				return
			}
			// Flip one byte of the first tensor device 4 holds.
			const dev = cluster.DeviceID(4)
			for id := range d.init {
				path := transform.ModelPath(benchJob, dev, id)
				stored, err := d.stores[dev].Query(path, nil)
				if err != nil {
					continue
				}
				bad := stored.Clone()
				bad.Data()[0] ^= 0xff
				if err := d.stores[dev].Upload(path, bad); err != nil {
					t.Errorf("inject corruption: %v", err)
				}
				return
			}
			t.Error("device 4 holds nothing to corrupt")
		}
		return d
	}
	res, err := runPass(w, 1, false, nil, runOpts{iters: 3, setups: 1})
	if err != nil {
		t.Fatalf("a corrupted operation aborted the run: %v", err)
	}
	if res.attempted != 3 || res.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", res.attempted, res.failed)
	}
	if !strings.Contains(res.firstError, "corrupted tensor") {
		t.Errorf("failure reported as %q, want a corrupted tensor", res.firstError)
	}
	if n := len(res.samples["reconfig_s"]); n != 2 {
		t.Errorf("%d latency samples, want 2: a failed operation must not contribute one", n)
	}
}

// A datapath workload reports each job's timings at the reference memory
// speed and keeps the wall-clock ones beside them.
func TestDatapathTimingsAreAtReferenceSpeed(t *testing.T) {
	res, err := runPass(localWorkload(t), 1, false, nil, runOpts{iters: 3, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.samples
	if len(s["mem.copy_probe_ms"]) != 3 || len(s["deploy_s"]) != 3 {
		t.Fatalf("%d probe readings and %d deploy samples for 3 jobs", len(s["mem.copy_probe_ms"]), len(s["deploy_s"]))
	}
	for i, probe := range s["mem.copy_probe_ms"] {
		if probe <= 0 {
			t.Fatalf("job %d: probe read %g ms", i, probe)
		}
		for norm, wall := range map[string]string{"deploy_s": "wall.deploy_ms", "reconfig_s": "wall.reconfig_ms", "verify_s": "wall.verify_ms"} {
			want := s[wall][i] / 1e3 * (refProbeSeconds * 1e3 / probe)
			if got := s[norm][i]; math.Abs(got-want) > 1e-9*want {
				t.Errorf("job %d: %s = %g, want %s x reference/probe = %g", i, norm, got, wall, want)
			}
		}
	}
}

// The driver's last line has exactly the contract's keys, and carries
// every end-to-end metric untraced and every per-layer metric traced.
func TestDriverLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		want  []string
	}{{"0", e2eNames(true)}, {"1", layerNames()}} {
		var out, errOut bytes.Buffer
		code := runDriver(testEnv(t), localWorkload(t), 3, c.trace == "1",
			runOpts{seconds: 0.3, warmup: 1, setups: 2}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", c.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v\n%s", c.trace, err, lines[len(lines)-1])
		}
		if len(raw) != 4 {
			t.Errorf("trace %s: last line has keys %v, want exactly correct, attempted, failed, metrics", c.trace, raw)
		}
		var line driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", c.trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(c.want) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(line.Metrics), len(c.want))
		}
		for _, name := range c.want {
			v, ok := line.Metrics[name]
			if !ok {
				t.Errorf("trace %s: metric %s missing", c.trace, name)
			}
			if c.trace == "0" && v.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
	}
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want a non-zero exit and no result", code, out.String())
	}
}
