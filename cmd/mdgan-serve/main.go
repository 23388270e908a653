// Command mdgan-serve is the generator-serving daemon: it loads a
// generator checkpoint written by mdgan-train (-ckpt-out) and answers
// sampling requests over HTTP, fusing the requests that are waiting
// when the generator is free into one batched forward (see
// internal/serve). A lone request is served at once; there is no batch
// window to tune. -arch names the architecture the checkpoint was trained
// with; a conditional architecture is served with its class embedding,
// as every trainer writes it.
//
//	mdgan-train -algo md-gan -dataset digits -iters 2000 -ckpt-out g.ckpt
//	mdgan-serve -ckpt g.ckpt -arch mlp:128 -addr :8080
//
//	curl -X POST 'localhost:8080/sample?n=16&format=png' > grid.png
//	curl -X POST 'localhost:8080/sample?n=4'              # raw tensor frame
//	curl 'localhost:8080/statusz'                         # counters, latency
//	kill -HUP $(pidof mdgan-serve)                        # hot-reload -ckpt
//
// SIGHUP (or POST /reload) re-reads the checkpoint and swaps it in
// atomically between batches; SIGINT/SIGTERM drain and exit.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mdgan"
	"mdgan/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdgan-serve: ")
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
		ckpt     = flag.String("ckpt", "", "generator checkpoint to serve (required; SIGHUP re-reads it)")
		archName = flag.String("arch", "mlp:128", "generator architecture the checkpoint was trained with: ring | mlp:<h> | paper-mlp | paper-cnn-mnist | paper-cnn-cifar | faces | cnn:<c>x<size>x<classes>")
		maxBatch = flag.Int("max-batch", 64, "max samples fused into one batched forward")
		replicas = flag.Int("replicas", 1, "independent generator replicas (multi-core hosts)")
		seed     = flag.Int64("seed", 1, "latent-stream seed")
		ready    = flag.String("ready-file", "", "write the bound address to this file once listening (smoke tests)")
	)
	flag.Parse()
	if *ckpt == "" {
		log.Fatal("-ckpt is required (train one with: mdgan-train -ckpt-out g.ckpt)")
	}
	arch, err := mdgan.ArchByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := mdgan.NewSampleServer(mdgan.ServeOptions{
		Arch: arch, Checkpoint: *ckpt,
		MaxBatch: *maxBatch, Replicas: *replicas, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s checkpoint %s (%s, max batch %d, %d replica(s)) on http://%s",
		arch.Name, *ckpt, tensor.DTypeName, *maxBatch, *replicas, ln.Addr())
	if *ready != "" {
		if err := os.WriteFile(*ready, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// A client that never finishes its headers, or keeps an idle
	// connection open, must not hold a goroutine forever.
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				if err := srv.Reload(); err != nil {
					log.Printf("reload failed (still serving the old checkpoint): %v", err)
				} else {
					log.Printf("reloaded %s", *ckpt)
				}
				continue
			}
			log.Printf("%v: draining", sig)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			hs.Shutdown(ctx)
			cancel()
			return
		}
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	srv.Close()
	log.Print("bye")
}
