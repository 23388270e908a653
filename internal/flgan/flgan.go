// Package flgan implements FL-GAN, the paper's adaptation of federated
// learning (McMahan et al.) to GANs (§III-c): every worker holds a full
// (G, D) couple treated as one atomic object, trains locally on its
// shard for E epochs, then sends both parameter sets to the server,
// which averages them (FedAvg) and broadcasts the result at the start
// of the next round. It is the communication-efficient baseline MD-GAN
// is compared against in Figs. 3–6 and Tables II–IV.
//
// Cluster membership — fail-stop crash schedules, straggler demotion
// on send failures, and per-round client sampling (the original
// federated-learning setting MD-GAN's §VII.4 borrows back) — comes
// from the shared internal/cluster layer, so the baseline runs the
// same failure scenarios as MD-GAN: a crashed worker's shard and local
// couple disappear, the server keeps averaging the survivors.
package flgan

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// Config configures an FL-GAN run.
type Config struct {
	gan.TrainConfig
	// Net supplies the transport; nil selects an in-process ChannelNet.
	Net simnet.Net
	// CrashAt schedules fail-stop worker crashes: round number →
	// indices of workers to kill at the start of that round. Their
	// shards (and local couples) disappear with them — the FL-GAN
	// analogue of the Fig. 5 scenario.
	CrashAt map[int][]int
	// ActivePerRound, when in (0, N), has the server synchronise only
	// a uniform random subset of workers each round (federated
	// learning's client sampling). 0 activates everyone.
	ActivePerRound int
}

// EvalFunc observes the server's averaged generator after each round.
type EvalFunc func(iter int, g *gan.Generator)

// Result is the outcome of an FL-GAN run.
type Result struct {
	// Model is the final averaged couple held by the server.
	Model *gan.GAN
	// Traffic is the byte/message accounting snapshot.
	Traffic simnet.Traffic
	// Rounds is the number of synchronisation rounds performed.
	Rounds int
	// Iters is the number of local generator iterations each worker
	// performed in total.
	Iters int
	// Live lists the workers that survived the run, sorted by name.
	Live []string
}

const serverName = "server"

// localEpochs is E, the local epochs each worker trains between two
// FedAvg rounds (the paper's FL-GAN setting, E = 1).
const localEpochs = 1

func workerName(i int) string { return fmt.Sprintf("flworker%d", i) }

// Message types.
const (
	msgModel = "model" // C→W: averaged (G, D) parameters; W→C: local ones
	msgStop  = "stop"
)

// coupleParams lists every parameter of the (G, D) couple, generator
// first: the order of the wire payload (w and θ — the paper's N(θ+w)
// per-round traffic) and of the vector FedAvg averages.
func coupleParams(m *gan.GAN) []*nn.Param {
	g, d := m.G.Params(), m.D.Params()
	return append(append(make([]*nn.Param, 0, len(g)+len(d)), g...), d...)
}

func encodeCouple(m *gan.GAN) []byte {
	ps := coupleParams(m)
	return nn.AppendParams(make([]byte, 0, nn.EncodedParamSize(ps, tensor.NativeDType)), ps, tensor.NativeDType)
}

// decodeCoupleInto loads a payload from the network: every frame must
// have its parameter's shape and the payload must end where the
// parameters do, or the couple is left untouched.
func decodeCoupleInto(m *gan.GAN, p []byte) error {
	if err := nn.DecodeParams(p, coupleParams(m)); err != nil {
		return fmt.Errorf("flgan: decode couple: %w", err)
	}
	return nil
}

// Train runs FL-GAN over the shards. Iters counts LOCAL generator
// iterations per worker (matching the x-axes of Fig. 3, where FL-GAN
// scores are plotted against worker iterations); a synchronisation
// round happens every E·m/b local iterations (dataset.EpochIters).
func Train(shards []*dataset.Dataset, arch gan.Arch, cfg Config, eval EvalFunc) (*Result, error) {
	cfg.TrainConfig = cfg.TrainConfig.Defaults()
	n := len(shards)
	if n == 0 {
		return nil, fmt.Errorf("flgan: no shards")
	}

	net := cfg.Net
	if net == nil {
		net = simnet.NewChannelNet(0)
		defer net.Close()
	}
	if err := net.Register(serverName); err != nil {
		return nil, err
	}

	// Server model; every worker starts from the same parameters
	// (federated learning synchronises at the start of each round).
	global := arch.NewGAN(cfg.Seed, cfg.GenLoss, 1)

	// E local epochs in iterations, rounded as MD-GAN's swap cadence is.
	roundIters := dataset.EpochIters(shards, localEpochs, cfg.Batch)
	rounds := max(cfg.Iters/roundIters, 1)

	// Workers.
	type flWorker struct {
		name    string
		model   *gan.GAN
		optG    *opt.Adam
		optD    *opt.Adam
		sampler *dataset.Sampler
		rng     *rand.Rand
		done    chan struct{}
	}
	workers := make([]*flWorker, n)
	for i := range workers {
		name := workerName(i)
		if err := net.Register(name); err != nil {
			return nil, err
		}
		w := &flWorker{
			name:    name,
			model:   global.Clone(),
			optG:    opt.NewAdam(cfg.OptG),
			optD:    opt.NewAdam(cfg.OptD),
			sampler: dataset.NewSampler(shards[i], cfg.Seed+104729*int64(i+1)),
			rng:     rand.New(rand.NewSource(cfg.Seed + 1299709*int64(i+1))),
			done:    make(chan struct{}),
		}
		workers[i] = w
		go func() {
			defer close(w.done)
			inbox := net.Inbox(w.name)
			for msg := range inbox {
				switch msg.Type {
				case msgStop:
					return
				case msgModel:
					// Synchronise with the server's averaged couple,
					// then run E local epochs (§III-c).
					if err := decodeCoupleInto(w.model, msg.Payload); err != nil {
						return
					}
					for it := 0; it < roundIters; it++ {
						xr, lr := w.sampler.Sample(cfg.Batch)
						xg, lg := w.model.G.Generate(cfg.Batch, w.rng, true)
						for l := 0; l < cfg.DiscSteps; l++ {
							gan.DiscStep(w.model.D, w.model.LossConfig, w.optD, xr, lr, xg, lg)
						}
						gan.GenStepLocal(w.model, w.optG, cfg.Batch, w.rng)
					}
					if err := net.Send(simnet.Message{
						From: w.name, To: serverName, Type: msgModel,
						Kind: simnet.WtoC, Payload: encodeCouple(w.model),
					}); err != nil {
						return
					}
				}
			}
		}()
	}

	// Membership: the shared crash/join/sampling layer. The RNG is
	// FL-GAN's own (nothing else here draws server-side randomness).
	mem := cluster.New(net, rand.New(rand.NewSource(cfg.Seed+104659)), cfg.CrashAt, cfg.ActivePerRound)
	for _, w := range workers {
		mem.Add(w.name)
	}

	// Shutdown runs on every exit path (the error returns used to leak
	// the worker goroutines when cfg.Net was caller-supplied).
	stopped := false
	shutdown := func() {
		if stopped {
			return
		}
		stopped = true
		mem.StopAll(serverName, msgStop)
		for _, w := range workers {
			<-w.done
		}
	}
	defer shutdown()

	// Server rounds.
	shadow := global.Clone() // decode buffer for incoming worker models
	inbox := net.Inbox(serverName)
	nextEval := cfg.EvalEvery
	completed := 0
	for r := 1; r <= rounds; r++ {
		mem.ApplyCrashes(r)
		active := mem.Sample()
		if len(active) == 0 {
			break // every worker crashed: training ends
		}
		payload := encodeCouple(global)
		msgs := make([]simnet.Message, len(active))
		for i, name := range active {
			msgs[i] = simnet.Message{
				From: serverName, To: name, Type: msgModel,
				Kind: simnet.CtoW, Payload: payload,
			}
		}
		// A destination that is down mid-round (a crash that raced the
		// send, or a dead peer on a real transport) is demoted and the
		// round continues with the survivors; other transport errors
		// stay fatal.
		sent := make(map[string]bool, len(active))
		for i, err := range simnet.BroadcastEach(net, msgs) {
			switch {
			case err == nil:
				sent[active[i]] = true
			case errors.Is(err, simnet.ErrNodeDown):
				mem.Fail(active[i])
			default:
				return nil, fmt.Errorf("flgan: broadcast round %d: %w", r, err)
			}
		}
		if len(sent) == 0 {
			continue
		}
		// Average the returned parameter vectors. Sum in worker order
		// for determinism.
		vectors := make(map[string][]float64, len(sent))
		for len(vectors) < len(sent) {
			msg, ok := <-inbox
			if !ok {
				return nil, fmt.Errorf("flgan: server inbox closed")
			}
			if msg.Type != msgModel || !sent[msg.From] {
				continue
			}
			if err := decodeCoupleInto(shadow, msg.Payload); err != nil {
				return nil, err
			}
			vectors[msg.From] = nn.ParamVector(coupleParams(shadow))
		}
		names := make([]string, 0, len(vectors))
		for name := range vectors {
			names = append(names, name)
		}
		sort.Strings(names)
		avg := make([]float64, len(vectors[names[0]]))
		for _, name := range names {
			v := vectors[name]
			for i := range avg {
				avg[i] += v[i]
			}
		}
		inv := 1 / float64(len(names))
		for i := range avg {
			avg[i] *= inv
		}
		if err := nn.SetParamVector(coupleParams(global), avg); err != nil {
			return nil, fmt.Errorf("flgan: load averaged couple: %w", err)
		}
		// completed counts rounds in which workers actually trained —
		// a round skipped because every sampled destination was down
		// contributes no local iterations, so Result.Iters and the
		// eval x-axis must not count it.
		completed++
		if eval != nil && cfg.EvalEvery > 0 {
			// Report at the equivalent local-iteration count so curves
			// are comparable with MD-GAN and standalone; rounds rarely
			// align with EvalEvery exactly, so fire on every crossing.
			it := completed * roundIters
			if it >= nextEval {
				eval(it, global.G)
				for nextEval <= it {
					nextEval += cfg.EvalEvery
				}
			}
		}
	}
	shutdown()
	live := mem.Live()
	sort.Strings(live)
	return &Result{
		Model:   global,
		Traffic: net.Snapshot(),
		Rounds:  completed,
		Iters:   completed * roundIters,
		Live:    live,
	}, nil
}

// RoundTripBytes returns the per-round traffic of one worker in each
// direction: the serialised couple size (the paper's θ+w entry in
// Table III).
func RoundTripBytes(arch gan.Arch, seed int64, mode nn.GenLossMode, clsWeight float64) int64 {
	return nn.EncodedParamSize(coupleParams(arch.NewGAN(seed, mode, clsWeight)), tensor.NativeDType)
}
