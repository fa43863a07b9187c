package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// environment is what a pass needs from the machine: where the
// repository is, where the daemons' binaries are built, and a scratch
// directory inside the checkout.
type environment struct {
	root       string // directory of the tenplex module
	binDir     string
	gomaxprocs int

	buildOnce sync.Once
	buildErr  error
	buildS    float64
}

// findRoot walks up from dir to the directory whose go.mod declares
// module tenplex.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if strings.TrimSpace(line) == "module tenplex" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module tenplex above the working directory")
		}
		dir = parent
	}
}

func newEnvironment(root string, gomaxprocs int) *environment {
	return &environment{root: root, binDir: filepath.Join(root, ".bench_build", "bin"), gomaxprocs: gomaxprocs}
}

// buildDaemons compiles tenplex-store and tenplex-coordd from ./cmd
// once per process, before any clock starts.
func (e *environment) buildDaemons() error {
	e.buildOnce.Do(func() {
		t0 := time.Now()
		if err := os.MkdirAll(e.binDir, 0o755); err != nil {
			e.buildErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", e.binDir+string(os.PathSeparator),
			"./cmd/tenplex-store", "./cmd/tenplex-coordd")
		cmd.Dir = e.root
		if out, err := cmd.CombinedOutput(); err != nil {
			e.buildErr = fmt.Errorf("build daemons: %w\n%s", err, out)
			return
		}
		e.buildS = time.Since(t0).Seconds()
	})
	return e.buildErr
}

// scratch makes a fresh directory under the checkout's build directory;
// the caller removes it.
func (e *environment) scratch() (string, error) {
	base := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// daemon is a child process in its own process group whose first stdout
// line announces the address it bound ("... serving on http://<addr>").
type daemon struct {
	cmd   *exec.Cmd
	bound string

	mu      sync.Mutex
	buf     strings.Builder
	drained chan struct{} // closed when stdout reached EOF
	waited  bool
}

// children is every daemon started and not yet reaped, so that exit,
// signal and panic paths can kill them all.
var children struct {
	mu  sync.Mutex
	set map[*daemon]struct{}
}

func startDaemon(path string, env []string, args ...string) (*daemon, error) {
	cmd := exec.Command(path, args...)
	cmd.Env = env
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", path, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	children.mu.Lock()
	if children.set == nil {
		children.set = map[*daemon]struct{}{}
	}
	children.set[d] = struct{}{}
	children.mu.Unlock()

	// Keep draining after the first line so the child never blocks on a
	// full pipe; the goroutine ends when the child closes stdout.
	boundCh := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.buf.WriteString(line + "\n")
			d.mu.Unlock()
			if first {
				first = false
				addr := ""
				if i := strings.Index(line, "http://"); i >= 0 {
					if f := strings.Fields(line[i+len("http://"):]); len(f) > 0 {
						addr = f[0]
					}
				}
				boundCh <- addr
			}
		}
		if first {
			boundCh <- ""
		}
	}()
	select {
	case addr := <-boundCh:
		if addr == "" {
			d.kill()
			return nil, fmt.Errorf("%s did not announce an address:\n%s", path, d.output())
		}
		d.bound = addr
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not announce its address in 20 s", path)
	}
	return d, nil
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.String()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// reap waits for the child and forgets it. Only one caller may reap.
func (d *daemon) reap() error {
	<-d.drained // Wait closes the pipe; read everything first
	err := d.cmd.Wait()
	d.mu.Lock()
	d.waited = true
	d.mu.Unlock()
	children.mu.Lock()
	delete(children.set, d)
	children.mu.Unlock()
	return err
}

// stop asks the daemon to exit with SIGINT, which both daemons answer
// with a summary line, and kills its group if it has not gone in 10 s.
func (d *daemon) stop() error {
	d.mu.Lock()
	done := d.waited
	d.mu.Unlock()
	if done {
		return nil
	}
	_ = d.cmd.Process.Signal(os.Interrupt)
	timer := time.AfterFunc(10*time.Second, func() { _ = syscall.Kill(-d.pid(), syscall.SIGKILL) })
	defer timer.Stop()
	return d.reap()
}

// kill ends the daemon's whole process group at once.
func (d *daemon) kill() {
	d.mu.Lock()
	done := d.waited
	d.mu.Unlock()
	if done {
		return
	}
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL)
	_ = d.reap()
}

// killChildren is the last resort of every exit path.
func killChildren() {
	children.mu.Lock()
	var ds []*daemon
	for d := range children.set {
		ds = append(ds, d)
	}
	children.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// survivors lists process groups of pids that still have a member.
func survivors(pids []int) []int {
	var alive []int
	for _, pid := range pids {
		if err := syscall.Kill(-pid, 0); err == nil {
			alive = append(alive, pid)
		}
	}
	return alive
}
