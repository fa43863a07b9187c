// Command tenplex-store runs a Tensor Store daemon: the in-memory
// hierarchical virtual file system of one worker, served over the REST
// API (§5.2). State Transformers on other workers fetch sub-tensor
// ranges from it with queries like
//
//	GET /query?path=/job/j0/model/dev2/block.3/attn/qkv/weight&range=[:,2:4]
//
// a deploy or a restore from a checkpoint hands it all of its device's
// sub-tensors in one checksummed request (POST /upload-batch), and
// during a reconfiguration the daemon assembles its own new partitions
// from its peer daemons (POST /assemble), so it must be able to reach
// them at the addresses the coordinator knows them by.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"tenplex/internal/obs"
	"tenplex/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on a listener of its own (empty: off)")
	flag.Parse()

	if *pprofAddr != "" {
		bound, _, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			log.Fatalf("tenplex-store: %v", err)
		}
		fmt.Printf("tenplex-store: pprof on http://%s/debug/pprof/\n", bound)
	}

	srv := store.NewServer(store.NewMemFS())
	bound, closeFn, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("tenplex-store: %v", err)
	}
	fmt.Printf("tenplex-store: serving on http://%s\n", bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	_ = closeFn()
	fmt.Printf("tenplex-store: served %d B, received %d B, pulled %d B from peers\n",
		srv.BytesServed(), srv.BytesReceived(), srv.BytesPulled())
}
