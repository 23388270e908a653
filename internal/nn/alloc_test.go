package nn

import (
	"math/rand"
	"testing"

	"mdgan/internal/tensor"
)

// Steady-state allocation regressions: after warm-up, a training step
// (forward + backward) through the layer stacks must stay under a tight
// allocation budget — layer outputs, gradients and conv workspaces all
// live in reused or pooled buffers. The budgets leave headroom only for
// the worker-pool fan-out bookkeeping and reshape views.

func trainStep(net *Sequential, x, grad *tensor.Tensor) {
	net.ZeroGrads()
	net.Forward(x, true)
	net.Backward(grad)
}

func TestDenseStackSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	net := NewSequential(
		NewDense(64, 48, rng),
		NewLeakyReLU(0.2),
		NewDense(48, 48, rng),
		NewTanh(),
		NewDense(48, 1, rng),
	)
	x := randInput(rng, 16, 64)
	grad := randInput(rng, 16, 1)
	for i := 0; i < 3; i++ {
		trainStep(net, x, grad)
	}
	n := testing.AllocsPerRun(50, func() { trainStep(net, x, grad) })
	// The only steady-state allocations are the fan-out closures built
	// when a matmul crosses the parallel grain (one per large matmul).
	budget := 16.0
	if raceEnabled {
		budget *= 2 // sporadic pool misses under the race detector
	}
	if n > budget {
		t.Fatalf("dense stack allocates %v per step, budget %v", n, budget)
	}
}

func TestConvStackSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	net := NewSequential(
		NewConv2D(1, 16, 16, 8, 3, 2, 1, rng), // -> (8, 8, 8)
		NewLeakyReLU(0.2),
		NewConv2D(8, 8, 8, 16, 3, 2, 1, rng), // -> (16, 4, 4)
		NewLeakyReLU(0.2),
		NewFlatten(),
		NewDense(256, 1, rng),
	)
	x := randInput(rng, 8, 1, 16, 16)
	grad := randInput(rng, 8, 1)
	for i := 0; i < 3; i++ {
		trainStep(net, x, grad)
	}
	n := testing.AllocsPerRun(50, func() { trainStep(net, x, grad) })
	// Conv layers Get/Put pooled workspaces and may fan out to the
	// worker pool (a WaitGroup + closure per parallel region), plus the
	// Flatten reshape views.
	budget := 32.0
	if raceEnabled {
		budget *= 2 // sporadic pool misses under the race detector
	}
	if n > budget {
		t.Fatalf("conv stack allocates %v per step, budget %v", n, budget)
	}
}

// TestConvTransposeFusedStepAllocs pins the ConvTranspose2D path on a
// single layer: one training step draws its workspaces — x̂ (kept from
// Forward to Backward), the col output, the gradient's im2col matrix
// gcol (built once for both backward products) and dx̂ — from the pool
// and returns each before the step ends, so steady state is nothing but
// fan-out bookkeeping.
func TestConvTransposeFusedStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	net := NewSequential(
		NewConvTranspose2D(8, 7, 7, 4, 5, 2, 2, 1, rng), // -> (4, 14, 14)
	)
	x := randInput(rng, 4, 8, 7, 7)
	grad := randInput(rng, 4, 4, 14, 14)
	for i := 0; i < 3; i++ {
		trainStep(net, x, grad)
	}
	n := testing.AllocsPerRun(50, func() { trainStep(net, x, grad) })
	budget := 20.0
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, and the
		// fused path cycles several pooled objects per step (workspaces,
		// GEMM run state, scheduler regions), so the flat x2 convention
		// undercounts here.
		budget = 80.0
	}
	if n > budget {
		t.Fatalf("fused convT step allocates %v per step, budget %v", n, budget)
	}
}

func TestConvTransposeStackSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	net := NewSequential(
		NewDense(16, 4*4*4, rng),
		NewReLU(),
		NewReshape(4, 4, 4),
		NewConvTranspose2D(4, 4, 4, 2, 4, 2, 1, 0, rng), // -> (2, 8, 8)
		NewTanh(),
	)
	x := randInput(rng, 8, 16)
	grad := randInput(rng, 8, 2, 8, 8)
	for i := 0; i < 3; i++ {
		trainStep(net, x, grad)
	}
	n := testing.AllocsPerRun(50, func() { trainStep(net, x, grad) })
	budget := 32.0
	if raceEnabled {
		budget *= 2 // sporadic pool misses under the race detector
	}
	if n > budget {
		t.Fatalf("convT stack allocates %v per step, budget %v", n, budget)
	}
}
