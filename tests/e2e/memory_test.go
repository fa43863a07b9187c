package e2e

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tenplex/internal/api"
	"tenplex/internal/model"
	"tenplex/internal/store"
)

// maxCoorddSlope is how many MiB tenplex-coordd's peak RSS may grow by
// per MiB of a job's state. A coordinator that holds a whole copy of a
// job's state while it deploys, checkpoints or verifies it pays that
// copy, and the garbage collector's headroom over it, at every size; one
// that streams the state through windows of a fixed size pays neither.
const maxCoorddSlope = 3.0

// TestE2ECoorddMemorySlope runs the same sequence of jobs at two GPT
// sizes, each against a fresh tenplex-coordd and four tenplex-store
// daemons, and reads coordd's peak RSS (VmHWM) after the last job: every
// job is admitted on two devices, deployed, scaled out to four,
// checkpointed and bit-verified at completion, one at a time, as
// bench/'s coordd-lifecycle workload drives them. The peak may grow by at
// most maxCoorddSlope MiB per MiB of state between the two sizes. Both
// readings go to the log and, under CI, to the job summary, next to each
// tenplex-store's VmHWM after the same jobs: a store keeps the buffers
// its jobs freed for the next job's tensors, up to a cap, so its peak is
// reported beside coordd's.
//
// Gated by TENPLEX_E2E_SUBPROCESS=1, like TestE2ESubprocess.
func TestE2ECoorddMemorySlope(t *testing.T) {
	if os.Getenv("TENPLEX_E2E_SUBPROCESS") != "1" {
		t.Skip("set TENPLEX_E2E_SUBPROCESS=1 to run the subprocess memory slope")
	}
	bin := t.TempDir()
	buildBinary(t, bin, "tenplex-store")
	buildBinary(t, bin, "tenplex-coordd")
	t.Setenv("GOMAXPROCS", "2") // the daemons' width, whatever the runner's

	const jobs = 40
	sizes := []api.ModelSpec{
		{Kind: "gpt", Layers: 4, Hidden: 128, Heads: 4, Vocab: 512, SeqLen: 32},
		{Kind: "gpt", Layers: 8, Hidden: 128, Heads: 4, Vocab: 512, SeqLen: 32},
	}
	var stateMiB, peakMiB [2]float64
	var storesMiB [2][]float64
	for i, spec := range sizes {
		m := model.GPTCustom(spec.Layers, spec.Hidden, spec.Heads, spec.Vocab, spec.SeqLen)
		stateMiB[i] = float64(m.StateBytes()) / (1 << 20)
		peakMiB[i], storesMiB[i] = peaksAfter(t, bin, spec, jobs)
	}
	slope := (peakMiB[1] - peakMiB[0]) / (stateMiB[1] - stateMiB[0])
	lines := []string{fmt.Sprintf("tenplex-coordd VmHWM after %d jobs: %.1f MiB at %.2f MiB of job state, %.1f MiB at %.2f MiB: %.2f MiB per MiB of state (limit %.1f)",
		jobs, peakMiB[0], stateMiB[0], peakMiB[1], stateMiB[1], slope, maxCoorddSlope)}
	for i := range sizes {
		lines = append(lines, fmt.Sprintf("tenplex-store VmHWM after %d jobs at %.2f MiB of job state: %.1f MiB", jobs, stateMiB[i], storesMiB[i]))
	}
	var summary *os.File
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644); err == nil {
			summary = f
			defer f.Close()
		}
	}
	for _, line := range lines {
		t.Log(line)
		if summary != nil {
			fmt.Fprintln(summary, line)
		}
	}
	if slope > maxCoorddSlope {
		t.Fatalf("coordd's peak RSS grows %.2f MiB per MiB of job state, more than %.1f: it holds copies of the state", slope, maxCoorddSlope)
	}
}

// peaksAfter boots four store daemons and a coordd, runs jobs jobs of
// model spec one after another, each until it is bit-verified and
// coordd has released its state from the stores, and returns coordd's
// VmHWM and each store's, in MiB. The daemons are stopped before it
// returns.
func peaksAfter(t *testing.T, bin string, spec api.ModelSpec, jobs int) (coorddMiB float64, storesMiB []float64) {
	t.Helper()
	var urls []string
	var clients []*store.Client
	var procs []*daemon
	for i := 0; i < 4; i++ {
		d := startDaemon(t, filepath.Join(bin, "tenplex-store"), "-addr", "127.0.0.1:0")
		procs = append(procs, d)
		urls = append(urls, "http://"+d.bound)
		clients = append(clients, &store.Client{Base: "http://" + d.bound})
	}
	coordd := startDaemon(t, filepath.Join(bin, "tenplex-coordd"),
		"-addr", "127.0.0.1:0", "-devices", "4", "-stores", strings.Join(urls, ","),
		"-wall-scale", "1s", "-auth", "mem:mem-token")
	procs = append(procs, coordd)
	defer func() {
		for _, d := range procs {
			_ = d.cmd.Process.Signal(os.Interrupt)
			_ = d.cmd.Wait()
		}
	}()
	base := "http://" + coordd.bound
	waitHealthy(t, base, 15*time.Second)
	c := &client{base: base, token: "mem-token", t: t}
	for j := 0; j < jobs; j++ {
		id := c.submit(api.SubmitRequest{Name: fmt.Sprintf("m%d", j), Model: spec,
			GPUs: 2, MinGPUs: 2, MaxGPUs: 4, DurationMin: 0.02})
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
			st := c.job(id)
			if st.Verified {
				break
			}
			if st.State == "failed" || st.State == "canceled" || time.Now().After(deadline) {
				t.Fatalf("job %s ended %q unverified", id, st.State)
			}
		}
		checkStoreState(t, clients, []string{id})
	}
	for _, d := range procs[:len(urls)] {
		storesMiB = append(storesMiB, vmHWMMiB(t, d.cmd.Process.Pid))
	}
	return vmHWMMiB(t, coordd.cmd.Process.Pid), storesMiB
}

// vmHWMMiB reads a process's peak resident set size from /proc.
func vmHWMMiB(t *testing.T, pid int) float64 {
	t.Helper()
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		t.Skipf("no /proc to read a daemon's peak RSS from: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				t.Fatalf("VmHWM line %q: %v", sc.Text(), err)
			}
			return kb / 1024
		}
	}
	t.Fatalf("no VmHWM in /proc/%d/status", pid)
	return 0
}
