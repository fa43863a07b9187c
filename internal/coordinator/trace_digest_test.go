package coordinator_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"tenplex/internal/coordinator"
	"tenplex/internal/experiments"
	"tenplex/internal/obs"
)

// The store wrappers (store.Wrap under store.Observe and
// chaos.WrapAccess) are held to the exact bytes of two deterministic
// datapath-level traces: the plain FIFO 32x12 sim, where every store
// operation is a span, and the hostile run, where chaos sits inside
// tracing and an injected fault shows up as a failed span. A digest that
// moves means a span name, an attr, a fate or the order of store
// operations moved with it. (The FIFO digest last moved by exactly one
// span: the release of job-04 deleting the model tree it had held on
// dev7, the device a fail-stop took from it, which had been left there.)
const (
	fifoDatapathTraceSHA256    = "4cc1ac448a450632843bcf0b09d18883f902ee5e2f71ab74df4c2516537628b4"
	hostileDatapathTraceSHA256 = "0359c1864c1e747ceb47a72a46e56e6a031d72f2ca4ca07dec5b0ec709f69a54"
)

func datapathTraceDigest(t *testing.T, opts coordinator.Options) string {
	t.Helper()
	topo, specs, failures := experiments.MultiJobScenario(32, 12, experiments.MultiJobSeed)
	tr := obs.New(obs.Options{Det: true, Level: obs.LevelDatapath})
	opts.Workers, opts.Obs = 1, tr
	if _, err := coordinator.Run(topo, specs, failures, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Export().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestObsDatapathTraceDigests runs on one P. An apply's store operations
// run on a pool of their own whatever Options.Workers says, and which of
// them an aborted attempt got to before its cancel landed is up to the
// scheduler. On one P that is the run queue's order, unless a worker
// that ran long is preempted — likelier on a loaded machine — so the
// hostile run gets a few tries to reproduce its bytes. The race
// detector randomizes the run queue, so under it the hostile digest is
// not checked.
func TestObsDatapathTraceDigests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name, want string
		opts       coordinator.Options
		tries      int
	}{
		{"fifo", fifoDatapathTraceSHA256, coordinator.Options{}, 1},
		{"hostile", hostileDatapathTraceSHA256, coordinator.Options{Chaos: hostilePlan(7), Recovery: hostileRecovery()}, 5},
	} {
		if c.opts.Chaos != nil && coordinator.RaceEnabled {
			continue
		}
		var got string
		for try := 0; try < c.tries && got != c.want; try++ {
			got = datapathTraceDigest(t, c.opts)
		}
		if got != c.want {
			t.Errorf("%s: LevelDatapath trace sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
