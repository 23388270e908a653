package nn

import (
	"fmt"
	"math"

	"mdgan/internal/tensor"
)

// Losses return both the scalar loss value and the gradient with respect
// to the logits, ready to feed Sequential.Backward. All losses average
// over the batch, matching the 1/b factors of the paper's Jdisc/Jgen.
// Natural logarithms are used throughout; the paper writes log₂, which
// differs by a constant factor absorbed into the learning rate.

// BCEWithLogits computes the binary cross-entropy between sigmoid(logits)
// and a constant target (1 = real, 0 = generated), in the numerically
// stable formulation max(s,0) − s·y + log(1+e^{−|s|}).
func BCEWithLogits(logits *tensor.Tensor, target float64) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape()...)
	return bceRows(logits.Data, grad.Data, target), grad
}

// BCEWithLogitsStacked is BCEWithLogits over two batches stacked into
// one: the first nReal rows have target 1, the rest target 0, and each
// group is averaged over its own size — the sum of the two losses, and
// for every row the gradient it has in its own batch.
func BCEWithLogitsStacked(logits *tensor.Tensor, nReal int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape()...)
	w := logits.Size() / logits.Dim(0)
	loss := bceRows(logits.Data[:nReal*w], grad.Data[:nReal*w], 1)
	return loss + bceRows(logits.Data[nReal*w:], grad.Data[nReal*w:], 0), grad
}

// bceRows writes the gradient of the mean cross-entropy of logits
// against target into grad and returns that mean.
func bceRows(logits, grad []tensor.Elem, target float64) float64 {
	n := float64(len(logits))
	loss := 0.0
	for i, sv := range logits {
		s := float64(sv)
		loss += math.Max(s, 0) - s*target + math.Log1p(math.Exp(-math.Abs(s)))
		grad[i] = tensor.Elem((sigmoid(s) - target) / n)
	}
	return loss / n
}

func sigmoid(s float64) float64 { return 1 / (1 + math.Exp(-s)) }

// GenLossMode selects the generator objective.
type GenLossMode int

const (
	// GenLossPaper minimises B̃ = E log(1−D(G(z))), the original
	// objective written in the paper (§II.2).
	GenLossPaper GenLossMode = iota
	// GenLossNonSaturating minimises −E log D(G(z)), the heuristic of
	// Goodfellow et al. that avoids vanishing gradients early in
	// training. Same fixed points, healthier dynamics.
	GenLossNonSaturating
)

// GeneratorLoss evaluates the generator objective on the discriminator's
// source logits for generated samples and returns (loss, ∂loss/∂logits).
// Backpropagating the returned gradient through D and then G yields
// exactly the Δw of paper §IV-B2; stopping at D's input yields the error
// feedback F_n.
func GeneratorLoss(srcLogits *tensor.Tensor, mode GenLossMode) (float64, *tensor.Tensor) {
	n := float64(srcLogits.Size())
	grad := tensor.New(srcLogits.Shape()...)
	loss := 0.0
	switch mode {
	case GenLossPaper:
		// B̃ = (1/b) Σ log(1−σ(s));  d/ds = −σ(s).
		for i, sv := range srcLogits.Data {
			s := float64(sv)
			// log(1−σ(s)) = −s − log(1+e^{−s}) = −max(s,0) − log(1+e^{−|s|})
			loss += -math.Max(s, 0) - math.Log1p(math.Exp(-math.Abs(s)))
			grad.Data[i] = tensor.Elem(-sigmoid(s) / n)
		}
	case GenLossNonSaturating:
		// −(1/b) Σ log σ(s);  d/ds = σ(s) − 1.
		for i, sv := range srcLogits.Data {
			s := float64(sv)
			loss += math.Max(-s, 0) + math.Log1p(math.Exp(-math.Abs(s)))
			grad.Data[i] = tensor.Elem((sigmoid(s) - 1) / n)
		}
	default:
		panic(fmt.Sprintf("nn: unknown GenLossMode %d", mode))
	}
	return loss / n, grad
}

// Softmax returns row-wise softmax probabilities of logits (N, K),
// computed with the max-subtraction trick.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, k)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		m := math.Inf(-1)
		for _, v := range row {
			if float64(v) > m {
				m = float64(v)
			}
		}
		sum := 0.0
		orow := out.Data[i*k : (i+1)*k]
		for j, v := range row {
			e := math.Exp(float64(v) - m)
			orow[j] = tensor.Elem(e)
			sum += e
		}
		inv := tensor.Elem(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// SoftmaxCrossEntropy computes the mean cross-entropy between the row
// softmax of logits (N, K) and integer labels, returning the loss and
// ∂loss/∂logits = (softmax − onehot)/N.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if len(labels) != logits.Dim(0) {
		panic(fmt.Sprintf("nn: %d labels for %d logit rows", len(labels), logits.Dim(0)))
	}
	// The probabilities are no longer needed once the loss is summed, so
	// the gradient (softmax − onehot)/N reuses their tensor in place.
	probs := Softmax(logits)
	return crossEntropyRows(probs.Data, logits.Dim(1), labels), probs
}

// SoftmaxCrossEntropyStacked is SoftmaxCrossEntropy over two batches
// stacked into one: the first len(first) rows carry the labels first and
// the rest the labels rest, each group averaged over its own size — the
// sum of the two losses, and for every row the gradient it has in its
// own batch. A nil rest leaves the remaining rows out of the loss, with
// a zero gradient.
func SoftmaxCrossEntropyStacked(logits *tensor.Tensor, first, rest []int) (float64, *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(first) > n || (rest != nil && len(first)+len(rest) != n) {
		panic(fmt.Sprintf("nn: %d+%d labels for %d logit rows", len(first), len(rest), n))
	}
	probs := Softmax(logits)
	split := len(first) * k
	loss := crossEntropyRows(probs.Data[:split], k, first)
	if rest == nil {
		clear(probs.Data[split:])
		return loss, probs
	}
	return loss + crossEntropyRows(probs.Data[split:], k, rest), probs
}

// crossEntropyRows turns the softmax probabilities probs (len(labels)
// rows of k) into the gradient (softmax − onehot)/N of their mean
// cross-entropy against labels, in place, and returns that mean.
func crossEntropyRows(probs []tensor.Elem, k int, labels []int) float64 {
	n := float64(len(labels))
	loss := 0.0
	for i, y := range labels {
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		loss -= math.Log(math.Max(float64(probs[i*k+y]), 1e-300))
	}
	inv := tensor.Elem(1 / n)
	for i := range probs {
		probs[i] *= inv
	}
	for i, y := range labels {
		probs[i*k+y] -= tensor.Elem(1 / n)
	}
	return loss / n
}

// Accuracy returns the fraction of rows whose arg-max matches the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	pred := logits.ArgMaxRows()
	hit := 0
	for i, p := range pred {
		if p == labels[i] {
			hit++
		}
	}
	return float64(hit) / float64(len(labels))
}
