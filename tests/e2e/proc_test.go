package e2e

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tenplex/internal/store"
)

// TestE2ESubprocess is the full out-of-process pipeline: it builds the
// tenplex-store and tenplex-coordd binaries, boots four store daemons
// and the coordinator daemon as real OS processes wired together over
// localhost HTTP, drives the shared workload through the public API,
// then shuts the coordinator down with SIGINT and checks its exit
// summary. The coordinator's -event-log NDJSON file is left under
// TENPLEX_E2E_OUT (when set) as a CI artifact.
//
// Gated by TENPLEX_E2E_SUBPROCESS=1: it forks processes and builds
// binaries, which tier-1 `go test ./...` should not do implicitly.
func TestE2ESubprocess(t *testing.T) {
	if os.Getenv("TENPLEX_E2E_SUBPROCESS") != "1" {
		t.Skip("set TENPLEX_E2E_SUBPROCESS=1 to run the subprocess e2e pipeline")
	}

	bin := t.TempDir()
	buildBinary(t, bin, "tenplex-store")
	buildBinary(t, bin, "tenplex-coordd")

	outDir := os.Getenv("TENPLEX_E2E_OUT")
	if outDir == "" {
		outDir = t.TempDir()
	} else if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatalf("TENPLEX_E2E_OUT %s: %v", outDir, err)
	}
	eventLog := filepath.Join(outDir, "coordd-events.ndjson")

	// Four store daemons, one per device, on ephemeral ports.
	var storeURLs []string
	var clients []*store.Client
	for i := 0; i < 4; i++ {
		proc := startDaemon(t, filepath.Join(bin, "tenplex-store"), "-addr", "127.0.0.1:0")
		u := "http://" + proc.bound
		storeURLs = append(storeURLs, u)
		clients = append(clients, &store.Client{Base: u})
	}

	coordd := startDaemon(t, filepath.Join(bin, "tenplex-coordd"),
		"-addr", "127.0.0.1:0",
		"-devices", "4",
		"-stores", strings.Join(storeURLs, ","),
		"-wall-scale", "2ms",
		"-auth", "e2e:e2e-token",
		"-event-log", eventLog,
	)
	base := "http://" + coordd.bound
	waitHealthy(t, base, 15*time.Second)

	c := &client{base: base, token: "e2e-token", t: t}
	ids, canceled := driveWorkload(t, c, clients)
	checkEvents(t, c, ids, canceled)
	lat := checkMetrics(t, c, 4, true)
	t.Logf("subprocess e2e: %s", fmtLatency(lat))
	checkStoreState(t, clients, ids)

	// Graceful shutdown: SIGINT, wait for the exit summary.
	if err := coordd.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signal coordd: %v", err)
	}
	if err := coordd.cmd.Wait(); err != nil {
		t.Fatalf("coordd exit: %v\n%s", err, coordd.output())
	}
	out := coordd.output()
	if !strings.Contains(out, "stopped after") {
		t.Fatalf("coordd exit summary missing, got:\n%s", out)
	}
	t.Logf("coordd: %s", strings.TrimSpace(out))

	// The event log must hold the workload's timeline.
	data, err := os.ReadFile(eventLog)
	if err != nil {
		t.Fatalf("event log: %v", err)
	}
	for _, id := range ids {
		if !strings.Contains(string(data), fmt.Sprintf("%q", id)) {
			t.Fatalf("event log missing job %s:\n%s", id, data)
		}
	}
	t.Logf("event log: %d bytes at %s", len(data), eventLog)
}

func buildBinary(t *testing.T, dir, name string) {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
}

// daemon is a child process that announced its bound address on a
// stdout line ("... serving on http://<addr> ..."); a pprof listener
// announced before it is not that address.
type daemon struct {
	cmd   *exec.Cmd
	bound string
	mu    sync.Mutex
	buf   strings.Builder
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.String()
}

func startDaemon(t *testing.T, path string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(path, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("%s stdout: %v", path, err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", path, err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Signal(os.Interrupt)
			_ = cmd.Wait()
		}
	})

	// The "serving on" line announces the bound address; keep draining
	// after that so the child never blocks on a full pipe.
	sc := bufio.NewScanner(stdout)
	boundCh := make(chan string, 1)
	go func() {
		first := true
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.buf.WriteString(line + "\n")
			d.mu.Unlock()
			if first {
				if i := strings.Index(line, servingOn); i >= 0 {
					addr := strings.Fields(line[i+len(servingOn):])[0]
					boundCh <- addr
					first = false
				}
			}
		}
		close(boundCh)
	}()
	select {
	case addr, ok := <-boundCh:
		if !ok || addr == "" {
			t.Fatalf("%s exited before announcing its address:\n%s", path, d.output())
		}
		d.bound = addr
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not announce its address in time", path)
	}
	return d
}

// servingOn precedes the address a daemon serves its API on.
const servingOn = "serving on http://"

// TestE2EStoreWithPprof: a store daemon started with a pprof listener of
// its own announces both; the harness takes the store's address, not
// the profiler's, and reaches the store there.
func TestE2EStoreWithPprof(t *testing.T) {
	if os.Getenv("TENPLEX_E2E_SUBPROCESS") != "1" {
		t.Skip("set TENPLEX_E2E_SUBPROCESS=1 to run the subprocess e2e pipeline")
	}
	bin := t.TempDir()
	buildBinary(t, bin, "tenplex-store")
	proc := startDaemon(t, filepath.Join(bin, "tenplex-store"), "-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0")
	if !strings.Contains(proc.output(), "pprof on http://") {
		t.Fatalf("the store did not announce its pprof listener first:\n%s", proc.output())
	}
	cl := &store.Client{Base: "http://" + proc.bound}
	if err := cl.PutBlob("/probe", []byte("x")); err != nil {
		t.Fatalf("store at %s: %v\n%s", proc.bound, err, proc.output())
	}
	if b, err := cl.GetBlob("/probe"); err != nil || string(b) != "x" {
		t.Fatalf("store at %s read back %q, %v", proc.bound, b, err)
	}
}

func waitHealthy(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/v1/healthz not healthy after %s (err=%v)", base, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
