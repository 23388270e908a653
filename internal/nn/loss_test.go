package nn

import (
	"math"
	"math/rand"
	"testing"

	"mdgan/internal/tensor"
)

func TestBCEWithLogitsValuesAndGrads(t *testing.T) {
	// At logit 0, sigmoid = 0.5: loss = −log 0.5 = ln 2 for either target;
	// grad = (0.5 − y)/n.
	logits := tensor.New(2, 1)
	loss, grad := BCEWithLogits(logits, 1)
	if math.Abs(loss-math.Ln2) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(float64(grad.Data[0])-(-0.25)) > 1e-12 {
		t.Fatalf("grad = %v, want -0.25", grad.Data[0])
	}
	loss0, grad0 := BCEWithLogits(logits, 0)
	if math.Abs(loss0-math.Ln2) > 1e-12 || math.Abs(float64(grad0.Data[0])-0.25) > 1e-12 {
		t.Fatalf("target-0 case: loss %v grad %v", loss0, grad0.Data[0])
	}
}

func TestBCEWithLogitsNumericGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := randInput(rng, 5, 1)
	for _, target := range []float64{0, 1} {
		_, grad := BCEWithLogits(logits, target)
		const h = 1e-6
		for i := range logits.Data {
			// Measure the perturbation the Elem storage actually
			// realised so the check stays valid at float32, where
			// orig ± h quantises.
			orig := logits.Data[i]
			logits.Data[i] = orig + h
			hp := float64(logits.Data[i])
			fp, _ := BCEWithLogits(logits, target)
			logits.Data[i] = orig - h
			hm := float64(logits.Data[i])
			fm, _ := BCEWithLogits(logits, target)
			logits.Data[i] = orig
			if relErr((fp-fm)/(hp-hm), float64(grad.Data[i])) > 1e-6 {
				t.Fatalf("target %v, logit %d: bad grad", target, i)
			}
		}
	}
}

func TestGeneratorLossNumericGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	logits := randInput(rng, 6, 1)
	for _, mode := range []GenLossMode{GenLossPaper, GenLossNonSaturating} {
		_, grad := GeneratorLoss(logits, mode)
		const h = 1e-6
		for i := range logits.Data {
			orig := logits.Data[i]
			logits.Data[i] = orig + h
			hp := float64(logits.Data[i])
			fp, _ := GeneratorLoss(logits, mode)
			logits.Data[i] = orig - h
			hm := float64(logits.Data[i])
			fm, _ := GeneratorLoss(logits, mode)
			logits.Data[i] = orig
			if relErr((fp-fm)/(hp-hm), float64(grad.Data[i])) > 1e-6 {
				t.Fatalf("mode %v, logit %d: bad grad", mode, i)
			}
		}
	}
}

func TestGeneratorLossModesAgreeOnFixedPoint(t *testing.T) {
	// Both objectives push D(G(z)) up; at logit s the paper-mode gradient
	// is −σ(s)/n and the non-saturating one is (σ(s)−1)/n — both strictly
	// negative, so a gradient DESCENT step always increases the logit.
	logits := tensor.FromSlice([]tensor.Elem{-3, 0, 3}, 3, 1)
	_, gp := GeneratorLoss(logits, GenLossPaper)
	_, gn := GeneratorLoss(logits, GenLossNonSaturating)
	for i := range gp.Data {
		if gp.Data[i] >= 0 || gn.Data[i] >= 0 {
			t.Fatalf("generator gradients must be negative: paper %v ns %v", gp.Data, gn.Data)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Softmax(randInput(rng, 7, 4))
	for i := 0; i < 7; i++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			s += p.At(i, j)
		}
		if math.Abs(s-1) > tensor.Tol(1e-12, 1e-5) {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyNumericGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := randInput(rng, 4, 5)
	labels := []int{0, 3, 2, 4}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	// Unlike BCE/GeneratorLoss (whose scalars are computed in float64
	// straight from the logits), this loss rounds through Elem-typed
	// softmax probabilities, so the step must clear the f32 evaluation
	// noise and the tolerance widens accordingly.
	h := tensor.Tol(1e-6, 1e-3)
	tol := tensor.Tol(1e-6, 5e-3)
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + tensor.Elem(h)
		hp := float64(logits.Data[i])
		fp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - tensor.Elem(h)
		hm := float64(logits.Data[i])
		fm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		if relErr((fp-fm)/(hp-hm), float64(grad.Data[i])) > tol {
			t.Fatalf("logit %d: bad grad", i)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]tensor.Elem{
		0.9, 0.1,
		0.2, 0.8,
		0.6, 0.4,
	}, 3, 2)
	if acc := Accuracy(logits, []int{0, 1, 1}); math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy = %v", acc)
	}
}

// The stacked losses give every row of two stacked batches the loss
// share and the gradient it has in its own batch, bit for bit.
func TestStackedLossesMatchPerBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const nr, ng, k = 3, 5, 4
	src, cls := randInput(rng, nr+ng, 1), randInput(rng, nr+ng, k)
	lr, lg := []int{0, 3, 1}, []int{2, 2, 0, 1, 3}
	half := func(x *tensor.Tensor, from, to int) *tensor.Tensor {
		w := x.Dim(1)
		return tensor.FromSlice(x.Data[from*w:to*w], to-from, w)
	}

	loss, grad := BCEWithLogitsStacked(src, nr)
	lReal, gReal := BCEWithLogits(half(src, 0, nr), 1)
	lGen, gGen := BCEWithLogits(half(src, nr, nr+ng), 0)
	if loss != lReal+lGen {
		t.Fatalf("stacked BCE %v, per batch %v + %v", loss, lReal, lGen)
	}
	sameBits(t, "BCE real rows", half(grad, 0, nr), gReal)
	sameBits(t, "BCE generated rows", half(grad, nr, nr+ng), gGen)

	loss, grad = SoftmaxCrossEntropyStacked(cls, lr, lg)
	lReal, gReal = SoftmaxCrossEntropy(half(cls, 0, nr), lr)
	lGen, gGen = SoftmaxCrossEntropy(half(cls, nr, nr+ng), lg)
	if loss != lReal+lGen {
		t.Fatalf("stacked cross-entropy %v, per batch %v + %v", loss, lReal, lGen)
	}
	sameBits(t, "cross-entropy real rows", half(grad, 0, nr), gReal)
	sameBits(t, "cross-entropy generated rows", half(grad, nr, nr+ng), gGen)

	// Unlabelled generated rows stay out of the class loss.
	loss, grad = SoftmaxCrossEntropyStacked(cls, lr, nil)
	if loss != lReal {
		t.Fatalf("cross-entropy with unlabelled rows %v, labelled batch alone %v", loss, lReal)
	}
	sameBits(t, "cross-entropy real rows, rest unlabelled", half(grad, 0, nr), gReal)
	sameBits(t, "unlabelled rows", half(grad, nr, nr+ng), tensor.New(ng, k))
}
