package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServePprof serves the runtime's profiles (net/http/pprof: CPU, heap,
// allocs, goroutine, block, mutex, execution trace) under /debug/pprof/
// on a listener of its own, so a daemon's -pprof flag exposes them
// without putting them on the port its API is served from. It returns
// the bound address and a function that stops the listener.
func ServePprof(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: pprof listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }() // returns when the caller closes srv
	return ln.Addr().String(), srv.Close, nil
}
