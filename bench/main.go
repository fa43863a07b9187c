// Command bench is the repository's one layered benchmark of the
// reconfiguration path: five named workloads from the planner alone to
// real tenplex-coordd and tenplex-store processes, fifteen end-to-end
// metrics (thirteen of them gated) from an untraced pass, and a
// per-layer budget from a traced pass whose spans are recorded only by wrappers in this
// directory. See README.md.
//
// The PR driver runs one workload per process:
//
//	bash bench/run.sh --workload wire-migrate-small --seed 1 --seconds 18 --trace 0
//
// and reads the last line of standard output. By hand, one command runs
// everything and prints every metric by name:
//
//	bash bench/run.sh -all -seed 1 -out result.json
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one pass measures.
const runSeconds = 18

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this workload only (the PR driver's mode)")
		seed     = fs.Int64("seed", 1, "drives tensor contents, job names and the order DiffPlan candidates are priced in")
		seconds  = fs.Float64("seconds", runSeconds, "how long one pass measures; the same on both sides of a comparison")
		trace    = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		all      = fs.Bool("all", false, "run every workload, untraced then traced, and print every metric")
		runs     = fs.Int("runs", 3, "with -all: untraced runs per workload, seeds seed..seed+runs-1; -compare needs at least 2")
		out      = fs.String("out", "", "with -all: write the result file here")
		smoke    = fs.Bool("smoke", false, "run every workload for 3 operations (5 jobs for coordd-lifecycle), traced and untraced")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments; exit 1 if any metric is worse")
		root     = fs.String("root", "", "repository root (default: found from the working directory)")
		describe = fs.Bool("benchmark-json", false, "print BENCHMARK.json as the program's metric tables define it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *describe {
		data, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}

	dir := *root
	if dir == "" {
		var err error
		if dir, err = findRoot("."); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	// One operation is in flight at a time; what runs inside it (the
	// transformer's workers, the servers' handlers) shares this many
	// processors, in this process and in the daemons.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	env := newEnvironment(dir, procs)

	// Children die with the benchmark on every path out: normal return,
	// a signal, a panic on this goroutine, or the watchdog.
	defer func() {
		killChildren()
		if r := recover(); r != nil {
			panic(r)
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	switch {
	case *smoke:
		return runSmoke(env, *seed, workloads, stdout, stderr)
	case *all:
		return runAll(env, *seed, *runs, *seconds, *out, stdout, stderr)
	case *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		return runDriver(env, w, *seed, *trace != 0, measureOpts(w, *seconds), stdout, stderr)
	}
	fs.Usage()
	return 2
}

// watchdog ends the process if a run takes three times what it should:
// a hung daemon must not hang the PR driver.
func watchdog(expected time.Duration, stderr io.Writer) *time.Timer {
	return time.AfterFunc(3*expected, func() {
		fmt.Fprintf(stderr, "bench: no result after %s (3x the expected run length); killing children and giving up\n", 3*expected)
		killChildren()
		os.Exit(3)
	})
}

// expectedRun is a generous estimate of one pass: the measurement
// itself plus set-ups and warm-up at the reference box's pace (18 s for
// plan-128dev, 3 s elsewhere). A pass counted in operations is the smoke
// run's or a test's handful.
func expectedRun(o runOpts) time.Duration {
	if o.iters > 0 {
		return 20 * time.Second
	}
	return time.Duration(o.seconds*float64(time.Second)) + 25*time.Second
}

// driverLine is the one JSON object the PR driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runDriver(env *environment, w workloadDef, seed int64, traced bool, o runOpts, stdout, stderr io.Writer) int {
	name := w.name
	defer watchdog(expectedRun(o), stderr).Stop()

	line := driverLine{Metrics: map[string]driverValue{}}
	if !traced {
		res, err := runPass(w, seed, false, env, o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		m := endToEndOf(w, res)
		printMetrics(stdout, fmt.Sprintf("%s seed %d: end to end, untraced, %d operations in %.1f s, %d failed",
			name, seed, res.attempted, res.elapsed.Seconds(), res.failed), e2eNames(true), m)
		printWall(stdout, res.samples)
		if res.firstError != "" {
			fmt.Fprintln(stdout, "first failure:", res.firstError)
		}
		line.Correct, line.Attempted, line.Failed = res.failed == 0, res.attempted, res.failed
		for _, k := range e2eNames(true) {
			line.Metrics[k] = driverValue{m[k].Value, m[k].Unit}
		}
		return emit(line, stdout, stderr)
	}

	// Half the time goes to the traced pass and a quarter each to the
	// untraced references before and after it.
	tr := o
	tr.seconds = o.seconds / 2
	res, refs, err := runTraced(w, seed, env, tr, o.seconds/4)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	m := layersOf(w, res)
	printMetrics(stdout, fmt.Sprintf("%s seed %d: per layer, traced, %d operations in %.1f s, %d failed, %d spans",
		name, seed, res.attempted, res.elapsed.Seconds(), res.failed, len(res.spans)), layerNames(), m)
	for _, v := range res.violations {
		fmt.Fprintln(stdout, "reconciliation violated:", v)
	}
	if res.firstError != "" {
		fmt.Fprintln(stdout, "first failure:", res.firstError)
	}
	spansOut := filepath.Join(env.root, ".bench_build", "trace", name+".json")
	err = os.MkdirAll(filepath.Dir(spansOut), 0o755)
	if err == nil {
		err = writeSpans(spansOut, res.spans)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line.Attempted, line.Failed = res.attempted, res.failed
	for _, ref := range refs {
		line.Attempted += ref.attempted
		line.Failed += ref.failed
	}
	line.Correct = line.Failed == 0 && len(res.violations) == 0
	for k, v := range m {
		line.Metrics[k] = driverValue{v.Value, v.Unit}
	}
	return emit(line, stdout, stderr)
}

// runTraced runs the traced pass between two untraced reference passes
// of refSeconds each and records what tracing cost: the traced median
// reconfig_s over the mean of the references' medians, minus 1. The
// box's speed drifts by more than tracing costs within minutes; a
// reference on either side cancels the drift's linear part.
func runTraced(w workloadDef, seed int64, env *environment, o runOpts, refSeconds float64) (*passResult, []*passResult, error) {
	o.setups = 1
	ref := o
	ref.seconds = refSeconds
	var refs []*passResult
	var traced *passResult
	for _, step := range []struct {
		traced bool
		o      runOpts
	}{{false, ref}, {true, o}, {false, ref}} {
		res, err := runPass(w, seed, step.traced, env, step.o)
		if err != nil {
			return nil, nil, err
		}
		if step.traced {
			traced = res
		} else {
			refs = append(refs, res)
		}
	}
	primary := func(res *passResult) float64 {
		v, _, _ := reduce(findE2E(w.primary), res.samples)
		return v
	}
	if untraced := (primary(refs[0]) + primary(refs[1])) / 2; untraced > 0 {
		traced.layers["trace.overhead"] = primary(traced)/untraced - 1
	}
	return traced, refs, nil
}

// printWall shows, for a datapath workload, whose gated timings are taken
// at the reference memory speed, the wall-clock medians they came from.
func printWall(w io.Writer, s series) {
	probe, ok := s["mem.copy_probe_ms"]
	if !ok {
		return
	}
	fmt.Fprintf(w, "  timings above are at the reference memory speed (probe %.4g ms); this run's probe median %.4g ms,\n"+
		"  wall-clock medians: deploy %.4g ms, reconfig %.4g ms, verify %.4g ms\n", refProbeSeconds*1e3, median(probe),
		median(s["wall.deploy_ms"]), median(s["wall.reconfig_ms"]), median(s["wall.verify_ms"]))
}

func emit(line driverLine, stdout, stderr io.Writer) int {
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}

// runAll is the one command that produces every metric: per workload,
// runs untraced passes (seeds seed, seed+1, ...) and one traced pass.
func runAll(env *environment, seed int64, runs int, seconds float64, out string, stdout, stderr io.Writer) int {
	file := newResultFile(env.root, seed, runs, seconds, env.gomaxprocs)
	code := 0
	for _, w := range workloads {
		o := measureOpts(w, seconds)
		wr := workloadResult{Name: w.name, Warmup: w.warmup}
		for r := 0; r < runs; r++ {
			wd := watchdog(expectedRun(o), stderr)
			res, err := runPass(w, seed+int64(r), false, env, o)
			wd.Stop()
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			m := endToEndOf(w, res)
			wr.Runs = append(wr.Runs, runResult{Seed: res.seed, Attempted: res.attempted, Failed: res.failed,
				FirstError: res.firstError, ElapsedS: res.elapsed.Seconds(), Metrics: m})
			printMetrics(stdout, fmt.Sprintf("\n== %s seed %d: end to end, untraced, %d operations in %.1f s, %d failed",
				w.name, res.seed, res.attempted, res.elapsed.Seconds(), res.failed), e2eNames(false), m)
			printWall(stdout, res.samples)
			if v := res.samples["state_mb_per_s"]; len(v) > 0 {
				fmt.Fprintf(stdout, "  %-34s %14.6g %-6s (state bytes / wall-clock reconfiguration time; not gated)\n", "state_mb_per_s", median(v), "MB/s")
			}
			if res.failed > 0 {
				fmt.Fprintln(stdout, "first failure:", res.firstError)
				code = 1
			}
		}
		wd := watchdog(2*expectedRun(o), stderr)
		res, _, err := runTraced(w, seed, env, o, o.seconds/4)
		wd.Stop()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		layers := layersOf(w, res)
		wr.Traced = &tracedResult{Seed: seed, Attempted: res.attempted, Failed: res.failed,
			Spans: len(res.spans), Violations: res.violations, Layers: layers}
		printMetrics(stdout, fmt.Sprintf("\n== %s seed %d: per layer, traced, %d operations, %d spans",
			w.name, seed, res.attempted, len(res.spans)), layerNames(), layers)
		for _, v := range res.violations {
			fmt.Fprintln(stdout, "reconciliation violated:", v)
			code = 1
		}
		if res.failed > 0 {
			fmt.Fprintln(stdout, "first failure:", res.firstError)
			code = 1
		}
		file.Workloads = append(file.Workloads, wr)
	}
	file.BuildS = env.buildS
	fmt.Fprintf(stdout, "\nbuild_s %.3f (daemons; informational)\n", env.buildS)
	if out != "" {
		if err := file.write(out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runSmoke runs each workload briefly, both ways, and fails on any
// failed operation or reconciliation violation: it keeps the benchmark
// building and correct, it measures nothing.
func runSmoke(env *environment, seed int64, ws []workloadDef, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range ws {
		o := runOpts{iters: 3, setups: 1}
		if w.name == "coordd-lifecycle" {
			o.iters = 5
		}
		for _, traced := range []bool{false, true} {
			wd := watchdog(expectedRun(o), stderr)
			res, err := runPass(w, seed, traced, env, o)
			wd.Stop()
			if err != nil {
				fmt.Fprintf(stdout, "FAIL %s traced=%v: %v\n", w.name, traced, err)
				code = 1
				continue
			}
			status := "ok  "
			if res.failed > 0 || len(res.violations) > 0 {
				status, code = "FAIL", 1
			}
			fmt.Fprintf(stdout, "%s %s traced=%v: %d operations, %d failed, %d violations %s%v\n",
				status, w.name, traced, res.attempted, res.failed, len(res.violations), res.firstError, res.violations)
		}
	}
	return code
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare needs two result files")
		return 2
	}
	fa, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fb, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	worse, err := compareFiles(stdout, fa, fb)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}
