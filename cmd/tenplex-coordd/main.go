// Command tenplex-coordd runs the coordinator as a long-running
// networked service: a REST/JSON control plane (job submit / scale /
// cancel, status, cluster inspection, NDJSON event stream, metrics)
// over the single-threaded decision plane, with per-tenant quotas
// keyed by bearer tokens. Job state lives in real tenplex-store
// servers when -stores is given (one server per device), or in-process
// memory stores otherwise. A reconfiguration between store servers
// moves state store to store: the coordinator tells each destination
// what to assemble and the destination pulls it from its peers, so the
// URLs given to -stores must be reachable from the other stores, not
// only from the coordinator.
//
//	tenplex-store -addr 127.0.0.1:7071 &
//	tenplex-store -addr 127.0.0.1:7072 &
//	tenplex-store -addr 127.0.0.1:7073 &
//	tenplex-store -addr 127.0.0.1:7074 &
//	tenplex-coordd -addr 127.0.0.1:8080 -devices 4 \
//	  -stores http://127.0.0.1:7071,http://127.0.0.1:7072,http://127.0.0.1:7073,http://127.0.0.1:7074 \
//	  -auth ops:s3cret:0:0
//	curl -H 'Authorization: Bearer s3cret' -d '{"name":"train","model":{"preset":"gpt-small"},"gpus":2,"duration_min":10}' \
//	  http://127.0.0.1:8080/v1/jobs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tenplex/internal/api"
	"tenplex/internal/cluster"
	"tenplex/internal/coordinator"
	"tenplex/internal/obs"
	"tenplex/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "API listen address")
	devices := flag.Int("devices", 4, "cluster size (multiple of 4: workers of 4 devices)")
	stores := flag.String("stores", "", "comma-separated tenplex-store base URLs, one per device, each reachable from the other stores (empty: in-process memory stores)")
	policy := flag.String("policy", "fifo", "scheduling policy: fifo | drf | priority")
	placement := flag.Bool("placement", true, "allocation-aware placement scoring")
	wallScale := flag.Duration("wall-scale", time.Second, "real time per simulated minute")
	workers := flag.Int("workers", 0, "execution-plane workers (0: GOMAXPROCS)")
	auth := flag.String("auth", "default:devtoken", "tenants as name:token[:maxdevices[:maxqueued]],...")
	eventLog := flag.String("event-log", "", "append the timeline as NDJSON to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty: off)")
	flag.Parse()

	if *pprofAddr != "" {
		bound, _, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("tenplex-coordd: %v", err)
		}
		fmt.Printf("tenplex-coordd: pprof on http://%s/debug/pprof/\n", bound)
	}

	if *devices < 4 || *devices%4 != 0 {
		log.Fatalf("tenplex-coordd: -devices must be a positive multiple of 4")
	}
	topo := cluster.Cloud(*devices)

	opts, err := options(*policy, *placement, *wallScale, *workers)
	if err != nil {
		log.Fatalf("tenplex-coordd: %v", err)
	}

	if *stores != "" {
		urls := strings.Split(*stores, ",")
		if len(urls) != *devices {
			log.Fatalf("tenplex-coordd: %d store URLs for %d devices (need one per device: the transformer commits whole per-device trees)", len(urls), *devices)
		}
		clients := make([]*store.Client, len(urls))
		for i, u := range urls {
			u = strings.TrimSpace(u)
			clients[i] = &store.Client{
				Base:    u,
				Retry:   &store.RetryPolicy{MaxAttempts: 3},
				Metrics: opts.Metrics,
			}
			waitForStore(clients[i], u)
		}
		opts.Stores = func(job string, dev cluster.DeviceID) store.Access {
			return clients[int(dev)]
		}
	}

	tenants, err := parseTenants(*auth)
	if err != nil {
		log.Fatalf("tenplex-coordd: %v", err)
	}

	svc, err := coordinator.StartService(topo, opts)
	if err != nil {
		log.Fatalf("tenplex-coordd: %v", err)
	}
	srv, err := api.NewServer(api.Config{Service: svc, Tenants: tenants})
	if err != nil {
		log.Fatalf("tenplex-coordd: %v", err)
	}

	var logDone chan struct{}
	if *eventLog != "" {
		logDone = make(chan struct{})
		f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("tenplex-coordd: event log: %v", err)
		}
		past, ch, _, err := svc.Subscribe(4096)
		if err != nil {
			log.Fatalf("tenplex-coordd: event log subscribe: %v", err)
		}
		go func() {
			defer close(logDone)
			defer f.Close()
			for _, e := range past {
				writeEvent(f, e)
			}
			for e := range ch {
				writeEvent(f, e)
			}
		}()
	}

	bound, closeFn, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("tenplex-coordd: %v", err)
	}
	fmt.Printf("tenplex-coordd: serving on http://%s (%d devices, policy %s)\n", bound, *devices, *policy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	_ = closeFn()
	res, err := svc.Stop()
	if logDone != nil {
		<-logDone // subscription channel closes at Stop; flush the tail
	}
	if err != nil {
		log.Fatalf("tenplex-coordd: shutdown: %v", err)
	}
	completed := 0
	for _, j := range res.Jobs {
		if j.Completed {
			completed++
		}
	}
	fmt.Printf("tenplex-coordd: stopped after %.1f simulated min: %d jobs seen, %d completed, %d plans validated\n",
		res.MakespanMin, len(res.Jobs), completed, res.PlansValidated)
}

// options builds the coordinator's Options from the flags; main adds
// the store clients of -stores. The recovery policy is how the service
// rides out a failed reconfiguration: the job rolls back to its last
// checkpoint and the change is applied once more, and a job whose
// changes keep aborting goes back to the queue at most three times
// before it is declared lost. Under the zero policy the first failed
// apply is an error of the whole service, which then refuses every
// later request.
func options(policy string, placement bool, wallScale time.Duration, workers int) (coordinator.Options, error) {
	opts := coordinator.Options{
		Placement: placement,
		WallScale: wallScale,
		Workers:   workers,
		Metrics:   obs.NewRegistry(),
		Recovery:  coordinator.RecoveryPolicy{MaxAttempts: 2, MaxRequeues: 3},
	}
	switch policy {
	case "fifo":
		opts.Policy = coordinator.FIFO{}
	case "drf":
		opts.Policy = coordinator.DRF{}
	case "priority":
		opts.Policy = coordinator.PriorityGang{}
	default:
		return opts, fmt.Errorf("unknown policy %q", policy)
	}
	return opts, nil
}

// waitForStore blocks until the store answers a listing (servers boot
// concurrently with coordd in the e2e harness).
func waitForStore(c *store.Client, u string) {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := c.List("/"); err == nil {
			return
		} else if time.Now().After(deadline) {
			log.Fatalf("tenplex-coordd: store %s unreachable: %v", u, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func writeEvent(f *os.File, e coordinator.TimelineEvent) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	_, _ = f.Write(append(b, '\n'))
}

func parseTenants(s string) ([]api.Tenant, error) {
	var out []api.Tenant
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("bad tenant %q (want name:token[:maxdevices[:maxqueued]])", part)
		}
		t := api.Tenant{Name: fields[0], Token: fields[1]}
		var err error
		if len(fields) > 2 {
			if t.MaxDevices, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("bad tenant %q: %v", part, err)
			}
		}
		if len(fields) > 3 {
			if t.MaxQueuedJobs, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("bad tenant %q: %v", part, err)
			}
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in -auth")
	}
	return out, nil
}
