// Command mdgan-train trains a GAN with one of the paper's three
// algorithms (standalone, fl-gan, md-gan) on a synthetic dataset and
// prints the metric curve as CSV plus a traffic summary.
//
// Examples:
//
//	mdgan-train -algo md-gan -dataset digits -workers 10 -iters 2000
//	mdgan-train -algo fl-gan -dataset cifar -batch 50
//	mdgan-train -algo md-gan -dataset ring -workers 4 -tcp
//	mdgan-train -algo md-gan -dataset digits -pipeline
//	mdgan-train -algo md-gan -dataset ring -chaos 0.01 -round-timeout 200ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"mdgan"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mdgan-train: ")
	os.Exit(report(run(os.Args[1:], os.Stdout)))
}

// usageError is a flag-parse error, which the flag package has already
// printed with the usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// report prints run's error unless the flag package already has, and
// returns the exit status: 0 on success and for -h, 2 for a usage error
// (as the flag package's ExitOnError does), 1 for any other error.
func report(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	log.Print(err)
	return 1
}

// run is main without the process: it parses args, trains, prints the
// metric curve to stdout and the run's summaries to stderr, and returns
// the first error. Flag-parse errors (and -h, as flag.ErrHelp) come
// back as a usageError: the flag package has already reported them on
// stderr.
func run(args []string, stdout io.Writer) error {
	// Flags bind straight into the Options value they configure; only
	// what Options does not hold, or holds in another type, gets a
	// variable of its own.
	var o mdgan.Options
	fs := flag.NewFlagSet("mdgan-train", flag.ContinueOnError)
	fs.StringVar((*string)(&o.Algorithm), "algo", "md-gan", "algorithm: standalone | fl-gan | md-gan")
	fs.IntVar(&o.Workers, "workers", 10, "number of workers N")
	fs.IntVar(&o.K, "k", 0, "MD-GAN batches per iteration (0 = ⌊ln N⌋)")
	fs.IntVar(&o.SwapEvery, "swap", 1, "epochs between discriminator swaps (-1 disables)")
	fs.BoolVar(&o.Async, "async", false, "MD-GAN asynchronous mode (§VII.1)")
	fs.BoolVar(&o.Pipeline, "pipeline", false, "MD-GAN pipelined synchronous engine: overlap next-round generation with worker compute (one-iteration parameter staleness)")
	fs.IntVar(&o.Batch, "batch", 10, "batch size b")
	fs.IntVar(&o.Iters, "iters", 1000, "generator iterations I")
	fs.IntVar(&o.DiscSteps, "L", 1, "discriminator steps per iteration")
	fs.Float64Var(&o.LRG, "lrg", 1e-3, "generator Adam learning rate")
	fs.Float64Var(&o.LRD, "lrd", 4e-3, "discriminator Adam learning rate")
	fs.BoolVar(&o.PaperLoss, "paperloss", false, "use the paper's log(1−D) generator objective")
	fs.Int64Var(&o.Seed, "seed", 1, "random seed")
	fs.IntVar(&o.EvalEvery, "eval", 100, "metric cadence in iterations (0 disables)")
	fs.BoolVar(&o.UseTCP, "tcp", false, "run workers over loopback TCP sockets")
	fs.DurationVar(&o.RoundTimeout, "round-timeout", 0, "MD-GAN round deadline: suspect missing workers and apply the round with a quorum (0 waits forever)")
	fs.IntVar(&o.Quorum, "quorum", 0, "minimum feedbacks to apply a round after the deadline (0 = 1)")
	fs.IntVar(&o.SuspectAfter, "suspect-after", 0, "consecutive misses before a suspect is demoted (0 = default, <0 = never)")
	fs.Float64Var(&o.NonIIDSkew, "skew", 0, "non-IID label skew in [0,1] (0 = i.i.d.)")
	fs.BoolVar(&o.Defense, "defense", false, "enable the server-side feedback-quality defense (down-weights, then demotes, free-riders)")
	fs.IntVar(&o.JoinWarmup, "join-warmup", 0, "ramp a dynamic joiner's aggregation weight over its first N rounds (0 = full weight at once)")
	var (
		ds         = fs.String("dataset", "digits", "dataset: digits | cifar | faces | ring")
		samples    = fs.Int("samples", 4000, "training samples to generate")
		swapNative = fs.Bool("swap-native", false, "ship discriminator swaps at the compiled element width instead of the default 4-byte FP32 wire frames")
		chaos      = fs.Float64("chaos", 0, "fault-injection intensity p in [0,1): drop=p, delay=2p, duplicate=p, corrupt=p/2 on worker→server frames (implies -round-timeout 250ms unless set)")
		chaosSeed  = fs.Int64("chaos-seed", 1, "seed for the chaos fault stream")
		compress   = fs.String("compress", "none", "feedback compression: none | fp32 | topk")
		samplesOut = fs.String("samples-out", "", "write a PNG grid of generated samples here")
		ckptOut    = fs.String("ckpt-out", "", "write a generator checkpoint here")
		freeRiders = fs.String("free-riders", "", "free-riding workers: N[:variant] (first N workers) or i=variant,... with variant random | replay | noise")
		lifetimes  = fs.String("lifetimes", "", "temporary-discriminator windows: i=join:retire,... (join 0 = from start, retire 0 = never)")
		topology   = fs.String("topology", "", "MD-GAN feedback aggregation overlay: flat (default) | tree:<depth> — tree reduces feedbacks through worker-side aggregators, bounding server ingress by its fan-in")
		fanin      = fs.Int("fanin", 0, "tree topology per-node child bound (0 = auto ceil(N^(1/depth)))")
		swapSched  = fs.String("swap-schedule", "", "discriminator swap plan: ring (default) | shuffle | gossip[:pairs]")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	var err error
	if o.Topology, err = mdgan.ParseTopology(*topology, *fanin); err != nil {
		return err
	}
	if *swapSched != "" { // unset keeps the Engine zero: the ring default
		if o.SwapSched, err = mdgan.ParseSwapSchedule(*swapSched); err != nil {
			return err
		}
	}
	switch *compress {
	case "none":
		o.Compress = mdgan.CompressNone
	case "fp32":
		o.Compress = mdgan.CompressFP32
	case "topk":
		o.Compress = mdgan.CompressTopK
	default:
		return fmt.Errorf("unknown -compress %q", *compress)
	}
	if *swapNative {
		o.SwapPrec = mdgan.SwapNative
	}
	if o.Byzantine, err = mdgan.ParseFreeRiders(*freeRiders); err != nil {
		return err
	}
	if o.Lifetimes, err = mdgan.ParseLifetimes(*lifetimes); err != nil {
		return err
	}
	if *chaos > 0 {
		o.Chaos = &mdgan.ChaosConfig{
			Seed:         *chaosSeed,
			Drop:         *chaos,
			Delay:        2 * *chaos,
			MaxDelay:     2 * time.Millisecond,
			Duplicate:    *chaos,
			Corrupt:      *chaos / 2,
			CorruptKinds: map[mdgan.LinkKind]bool{mdgan.LinkWtoC: true},
			ProtectTypes: map[string]bool{"stop": true, "swap": true},
		}
		if o.RoundTimeout == 0 {
			o.RoundTimeout = 250 * time.Millisecond
		}
	}

	train, test, err := buildDataset(*ds, *samples, o.Seed)
	if err != nil {
		return err
	}
	arch := mdgan.ArchFor(train)
	var ev *mdgan.Evaluator
	if o.EvalEvery > 0 && test != nil {
		log.Printf("training metric classifier on %s ...", *ds)
		scorer := mdgan.TrainScorer(test, o.Seed)
		ev = mdgan.NewEvaluator(scorer, test, 500)
	}
	log.Printf("running %s on %s (%d samples, arch %s, N=%d, b=%d, I=%d)",
		o.Algorithm, *ds, train.Len(), arch.Name, o.Workers, o.Batch, o.Iters)
	res, err := mdgan.Run(train, arch, o, ev)
	if err != nil {
		return err
	}

	if len(res.Curve.Iters) > 0 {
		fmt.Fprint(stdout, mdgan.FormatCurvesCSV([]mdgan.Curve{res.Curve}))
	}
	if res.Traffic.Total() > 0 {
		fmt.Fprint(os.Stderr, mdgan.FormatTraffic(res.Traffic))
	}
	if len(res.Live) > 0 {
		fmt.Fprintf(os.Stderr, "surviving workers: %v\n", res.Live)
	}
	if res.Faults.Any() || res.Faults.Retirements > 0 {
		fmt.Fprint(os.Stderr, res.Faults.String())
	}
	if c := res.Chaos; c.Dropped+c.Corrupted+c.Delayed+c.Duplicated+c.Partitioned > 0 {
		fmt.Fprintf(os.Stderr, "chaos: dropped=%d corrupted=%d delayed=%d duplicated=%d partitioned=%d\n",
			c.Dropped, c.Corrupted, c.Delayed, c.Duplicated, c.Partitioned)
	}
	if *samplesOut != "" && train.C > 0 {
		rng := rand.New(rand.NewSource(o.Seed + 99))
		gen, _ := res.G.Generate(64, rng, false)
		if err := mdgan.SaveSampleGrid(*samplesOut, gen, 8); err != nil {
			return err
		}
		log.Printf("wrote sample grid to %s", *samplesOut)
	}
	if *ckptOut != "" {
		if err := mdgan.SaveGenerator(res.G, *ckptOut); err != nil {
			return err
		}
		log.Printf("wrote generator checkpoint to %s", *ckptOut)
	}
	return nil
}

func buildDataset(name string, n int, seed int64) (train, test *mdgan.Dataset, err error) {
	switch name {
	case "digits":
		return mdgan.SynthDigits(n, seed), mdgan.SynthDigits(2000, seed+1), nil
	case "cifar":
		return mdgan.SynthCIFAR(n, seed), mdgan.SynthCIFAR(2000, seed+1), nil
	case "faces":
		return mdgan.SynthFaces(n, seed), mdgan.SynthFaces(2000, seed+1), nil
	case "ring":
		return mdgan.GaussianRing(n, 8, 2.0, 0.05, seed), nil, nil
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want digits|cifar|faces|ring)", name)
	}
}
