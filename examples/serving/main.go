// Serving: the mdgan-train → mdgan-serve pipeline in one process.
// Train briefly on the Gaussian ring, checkpoint the generator, stand
// up the coalescing sample server on a loopback port, and hit it the
// way external clients would: concurrent POST /sample requests, which
// queue behind the forward that is running and are fused into the next
// one, then a /statusz read showing how well the coalescer batched
// them.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mdgan"
)

func main() {
	// 1. Train — a short MD-GAN run on the toy ring (see
	// examples/quickstart for the training side in detail).
	train := mdgan.GaussianRing(2000, 8, 2.0, 0.05, 1)
	res, err := mdgan.Run(train, mdgan.RingArch(), mdgan.Options{
		Algorithm: mdgan.MDGAN, Workers: 4, Batch: 32, Iters: 300, K: 2, Seed: 42,
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Checkpoint. SaveGenerator writes atomically (temp file +
	// rename), so a trainer may keep rewriting this path while the
	// server below hot-reloads it.
	dir, err := os.MkdirTemp("", "mdgan-serving-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "ring.ckpt")
	if err := mdgan.SaveGenerator(res.G, ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %s\n", ckpt)

	// 3. Serve. NewSampleServer loads the checkpoint and starts the
	// request coalescer; cmd/mdgan-serve is this plus flags and signal
	// handling. Nothing trades latency for batching: a request that
	// finds the generator idle is served at once, and the requests that
	// arrive while a forward runs share the next one.
	srv, err := mdgan.NewSampleServer(mdgan.ServeOptions{
		Arch:       mdgan.RingArch(),
		Checkpoint: ckpt,
		MaxBatch:   64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	// 4. Load it like a client fleet: 16 concurrent samplers, each
	// requesting a few samples. Whoever is waiting when a forward ends
	// rides the next one together.
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(base+"/sample?n=4", "", nil)
				if err != nil {
					log.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					log.Fatalf("POST /sample: %s", resp.Status)
				}
			}
		}()
	}
	wg.Wait()

	// 5. The coalescing evidence: far fewer forwards than requests.
	st := srv.Status()
	fmt.Printf("requests=%d samples=%d forwards=%d (avg batch %.1f), p99 %.2fms\n",
		st.Requests, st.Samples, st.Forwards, st.AvgBatch, st.LatencyP99Ms)
	if st.Forwards >= st.Requests {
		log.Fatal("coalescer fused nothing — every request paid a full forward")
	}
}
