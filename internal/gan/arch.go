package gan

import (
	"math/rand"

	"mdgan/internal/nn"
)

// Arch is a GAN architecture specification: it knows how to build fresh
// generator and discriminator networks and carries the metadata
// (latent size, conditioning, output geometry) the trainers need.
type Arch struct {
	Name     string
	ZDim     int
	Classes  int   // number of classes for ACGAN conditioning (0 = none)
	OutShape []int // per-sample output shape, e.g. [1, 28, 28]
	BuildG   func(rng *rand.Rand) *nn.Sequential
	BuildD   func(rng *rand.Rand) (trunk *nn.Sequential, featDim int)
}

// SampleDim returns the flattened sample dimension (the paper's object
// size d, in scalar values).
func (a Arch) SampleDim() int {
	d := 1
	for _, v := range a.OutShape {
		d *= v
	}
	return d
}

// NewGAN instantiates the architecture with the given seed and loss
// configuration.
func (a Arch) NewGAN(seed int64, mode nn.GenLossMode, clsWeight float64) *GAN {
	rng := rand.New(rand.NewSource(seed))
	gnet := a.BuildG(rng)
	trunk, feat := a.BuildD(rng)
	d := &Discriminator{
		Trunk: trunk,
		Src:   nn.NewSequential(nn.NewDense(feat, 1, rng)),
	}
	cond := 0
	if a.Classes > 0 && clsWeight > 0 {
		d.Cls = nn.NewSequential(nn.NewDense(feat, a.Classes, rng))
		cond = a.Classes
	}
	g := NewGenerator(gnet, a.ZDim, cond, rng)
	return &GAN{G: g, D: d, LossConfig: LossConfig{GenLoss: mode, ClsWeight: clsWeight}}
}

// PaperMLP is the paper's MLP architecture for MNIST-shaped data
// (§V-A(b)): G = 512/512/784 fully-connected (716,560 parameters
// exactly), D = 512/512/11 (670,219 parameters exactly, with the
// 11-neuron output realised as a 1-logit source head plus a 10-logit
// class head).
func PaperMLP() Arch {
	return Arch{
		Name: "paper-mlp", ZDim: 100, Classes: 10, OutShape: []int{1, 28, 28},
		BuildG: func(rng *rand.Rand) *nn.Sequential {
			return nn.NewSequential(
				nn.NewDense(100, 512, rng),
				nn.NewReLU(),
				nn.NewDense(512, 512, rng),
				nn.NewReLU(),
				nn.NewDense(512, 784, rng),
				nn.NewTanh(),
				nn.NewReshape(1, 28, 28),
			)
		},
		BuildD: func(rng *rand.Rand) (*nn.Sequential, int) {
			return nn.NewSequential(
				nn.NewFlatten(),
				nn.NewDense(784, 512, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewDense(512, 512, rng),
				nn.NewLeakyReLU(0.2),
			), 512
		},
	}
}

// ScaledMLP is a width-reduced MLP for fast experiments on 28×28
// digits: same depth and activations as PaperMLP, hidden width h.
func ScaledMLP(h int) Arch {
	return Arch{
		Name: "scaled-mlp", ZDim: 32, Classes: 10, OutShape: []int{1, 28, 28},
		BuildG: func(rng *rand.Rand) *nn.Sequential {
			return nn.NewSequential(
				nn.NewDense(32, h, rng),
				nn.NewReLU(),
				nn.NewDense(h, h, rng),
				nn.NewReLU(),
				nn.NewDense(h, 784, rng),
				nn.NewTanh(),
				nn.NewReshape(1, 28, 28),
			)
		},
		BuildD: func(rng *rand.Rand) (*nn.Sequential, int) {
			return nn.NewSequential(
				nn.NewFlatten(),
				nn.NewDense(784, h, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewDense(h, h, rng),
				nn.NewLeakyReLU(0.2),
			), h
		},
	}
}

// PaperCNNMNIST follows the layer list of the paper's CNN architecture
// for MNIST: G = one 6,272-neuron fully-connected layer (128·7·7) plus
// transposed convolutions of 32 and 1 kernels (5×5, stride 2); D = six
// 3×3 convolutions of 16..512 kernels, a minibatch-discrimination layer
// and the 11-neuron output. The paper omits strides/padding, so exact
// parameter counts differ slightly.
func PaperCNNMNIST() Arch {
	return Arch{
		Name: "paper-cnn-mnist", ZDim: 100, Classes: 10, OutShape: []int{1, 28, 28},
		BuildG: func(rng *rand.Rand) *nn.Sequential {
			return nn.NewSequential(
				nn.NewDense(100, 6272, rng), // 128·7·7
				nn.NewReLU(),
				nn.NewReshape(128, 7, 7),
				nn.NewConvTranspose2D(128, 7, 7, 32, 5, 2, 2, 1, rng), // 7→14
				nn.NewReLU(),
				nn.NewConvTranspose2D(32, 14, 14, 1, 5, 2, 2, 1, rng), // 14→28
				nn.NewTanh(),
			)
		},
		BuildD: func(rng *rand.Rand) (*nn.Sequential, int) {
			return nn.NewSequential(
				nn.NewConv2D(1, 28, 28, 16, 3, 2, 1, rng), // 28→14
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(16, 14, 14, 32, 3, 1, 1, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(32, 14, 14, 64, 3, 2, 1, rng), // 14→7
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(64, 7, 7, 128, 3, 1, 1, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(128, 7, 7, 256, 3, 2, 1, rng), // 7→4
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(256, 4, 4, 512, 3, 1, 1, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewFlatten(),
				nn.NewDense(512*4*4, 64, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewMinibatchDiscrimination(64, 8, 4, rng),
			), 72
		},
	}
}

// PaperCNNCIFAR follows the paper's CNN architecture for CIFAR10:
// G = one 6,144-neuron fully-connected layer (384·4·4) plus transposed
// convolutions of 192, 96 and 3 kernels (5×5, stride 2); D = the same
// six-convolution stack as MNIST on 32×32×3 input.
func PaperCNNCIFAR() Arch {
	return Arch{
		Name: "paper-cnn-cifar", ZDim: 100, Classes: 10, OutShape: []int{3, 32, 32},
		BuildG: func(rng *rand.Rand) *nn.Sequential {
			return nn.NewSequential(
				nn.NewDense(100, 6144, rng), // 384·4·4
				nn.NewReLU(),
				nn.NewReshape(384, 4, 4),
				nn.NewConvTranspose2D(384, 4, 4, 192, 5, 2, 2, 1, rng), // 4→8
				nn.NewReLU(),
				nn.NewConvTranspose2D(192, 8, 8, 96, 5, 2, 2, 1, rng), // 8→16
				nn.NewReLU(),
				nn.NewConvTranspose2D(96, 16, 16, 3, 5, 2, 2, 1, rng), // 16→32
				nn.NewTanh(),
			)
		},
		BuildD: func(rng *rand.Rand) (*nn.Sequential, int) {
			return nn.NewSequential(
				nn.NewConv2D(3, 32, 32, 16, 3, 2, 1, rng), // 32→16
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(16, 16, 16, 32, 3, 1, 1, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(32, 16, 16, 64, 3, 2, 1, rng), // 16→8
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(64, 8, 8, 128, 3, 1, 1, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(128, 8, 8, 256, 3, 2, 1, rng), // 8→4
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(256, 4, 4, 512, 3, 1, 1, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewFlatten(),
				nn.NewDense(512*4*4, 64, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewMinibatchDiscrimination(64, 8, 4, rng),
			), 72
		},
	}
}

// ScaledCNN is a channel-reduced convolutional architecture for
// size×size images with c channels — the workhorse of the CNN
// experiments at laptop scale. Structure mirrors the paper CNNs
// (FC → two transposed convs; strided conv stack → minibatch
// discrimination).
func ScaledCNN(c, size, classes int) Arch {
	q := size / 4
	return Arch{
		Name: "scaled-cnn", ZDim: 32, Classes: classes, OutShape: []int{c, size, size},
		BuildG: func(rng *rand.Rand) *nn.Sequential {
			return nn.NewSequential(
				nn.NewDense(32, 16*q*q, rng),
				nn.NewReLU(),
				nn.NewReshape(16, q, q),
				nn.NewConvTranspose2D(16, q, q, 8, 5, 2, 2, 1, rng), // q→2q
				nn.NewReLU(),
				nn.NewConvTranspose2D(8, 2*q, 2*q, c, 5, 2, 2, 1, rng), // 2q→size
				nn.NewTanh(),
			)
		},
		BuildD: func(rng *rand.Rand) (*nn.Sequential, int) {
			return nn.NewSequential(
				nn.NewConv2D(c, size, size, 8, 3, 2, 1, rng), // size→size/2
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(8, size/2, size/2, 16, 3, 2, 1, rng), // →size/4
				nn.NewLeakyReLU(0.2),
				nn.NewFlatten(),
				nn.NewDense(16*q*q, 48, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewMinibatchDiscrimination(48, 6, 3, rng),
			), 54
		},
	}
}

// FacesCNN is the Fig. 6 (CelebA) architecture adapted to the 32×32
// SynthFaces stand-in: G = one 16,384-neuron fully-connected layer
// (matching the paper's CelebA generator) plus two transposed
// convolutions of 128 and 3 kernels; D = convolution stack with a
// single-neuron output (the paper's CelebA D is unconditional).
func FacesCNN() Arch {
	return Arch{
		Name: "faces-cnn", ZDim: 100, Classes: 0, OutShape: []int{3, 32, 32},
		BuildG: func(rng *rand.Rand) *nn.Sequential {
			return nn.NewSequential(
				nn.NewDense(100, 16384, rng), // 256·8·8
				nn.NewReLU(),
				nn.NewReshape(256, 8, 8),
				nn.NewConvTranspose2D(256, 8, 8, 128, 5, 2, 2, 1, rng), // 8→16
				nn.NewReLU(),
				nn.NewConvTranspose2D(128, 16, 16, 3, 5, 2, 2, 1, rng), // 16→32
				nn.NewTanh(),
			)
		},
		BuildD: func(rng *rand.Rand) (*nn.Sequential, int) {
			return nn.NewSequential(
				nn.NewConv2D(3, 32, 32, 16, 3, 2, 1, rng), // 32→16
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(16, 16, 16, 32, 3, 2, 1, rng), // 16→8
				nn.NewLeakyReLU(0.2),
				nn.NewConv2D(32, 8, 8, 64, 3, 2, 1, rng), // 8→4
				nn.NewLeakyReLU(0.2),
				nn.NewFlatten(),
				nn.NewDense(64*4*4, 64, rng),
				nn.NewLeakyReLU(0.2),
			), 64
		},
	}
}

// RingMLP is a tiny unconditional GAN for the 2-D Gaussian-ring toy
// set — fast enough for unit tests and the quickstart example.
func RingMLP() Arch {
	return Arch{
		Name: "ring-mlp", ZDim: 8, Classes: 0, OutShape: []int{2},
		BuildG: func(rng *rand.Rand) *nn.Sequential {
			return nn.NewSequential(
				nn.NewDense(8, 32, rng),
				nn.NewReLU(),
				nn.NewDense(32, 32, rng),
				nn.NewReLU(),
				nn.NewDense(32, 2, rng),
			)
		},
		BuildD: func(rng *rand.Rand) (*nn.Sequential, int) {
			return nn.NewSequential(
				nn.NewDense(2, 32, rng),
				nn.NewLeakyReLU(0.2),
				nn.NewDense(32, 32, rng),
				nn.NewLeakyReLU(0.2),
			), 32
		},
	}
}
