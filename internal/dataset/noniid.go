package dataset

import (
	"fmt"
	"math/rand"
	"sort"
)

// The paper assumes i.i.d. shards ("there are no bias in the
// distribution of the data on one particular worker node", §III-a).
// SplitNonIID relaxes that assumption so the effect of label skew on
// MD-GAN — and the corrective role of the discriminator swap — can be
// studied. Skew is controlled by a single knob:
//
//	skew = 0  → i.i.d. (equivalent to Split)
//	skew = 1  → fully sorted by label: each worker sees only ~C/N classes
//
// Intermediate values mix a sorted deal with a shuffled deal, the
// standard "fraction-sorted" construction from the federated-learning
// literature (McMahan et al.'s pathological split is skew = 1).
func SplitNonIID(ds *Dataset, n int, skew float64, seed int64) []*Dataset {
	if n <= 0 {
		panic("dataset: SplitNonIID needs n > 0")
	}
	if skew < 0 || skew > 1 {
		panic(fmt.Sprintf("dataset: skew %v outside [0,1]", skew))
	}
	rng := rand.New(rand.NewSource(seed))

	// Partition indices into a sorted pool (dealt contiguously, so
	// neighbouring workers get same-label runs) and a shuffled pool
	// (dealt round-robin).
	idx := rng.Perm(ds.Len())
	nSorted := int(skew * float64(len(idx)))
	sortedPool := append([]int(nil), idx[:nSorted]...)
	shuffledPool := idx[nSorted:]
	sort.Slice(sortedPool, func(a, b int) bool {
		if ds.Labels[sortedPool[a]] != ds.Labels[sortedPool[b]] {
			return ds.Labels[sortedPool[a]] < ds.Labels[sortedPool[b]]
		}
		return sortedPool[a] < sortedPool[b]
	})

	shardIdx := make([][]int, n)
	// Sorted pool: contiguous blocks of size ⌈len/n⌉.
	if len(sortedPool) > 0 {
		block := (len(sortedPool) + n - 1) / n
		for i := 0; i < n; i++ {
			lo := i * block
			hi := lo + block
			if lo > len(sortedPool) {
				lo = len(sortedPool)
			}
			if hi > len(sortedPool) {
				hi = len(sortedPool)
			}
			shardIdx[i] = append(shardIdx[i], sortedPool[lo:hi]...)
		}
	}
	// Shuffled pool: round-robin.
	for i, p := range shuffledPool {
		shardIdx[i%n] = append(shardIdx[i%n], p)
	}

	out := make([]*Dataset, n)
	for i, si := range shardIdx {
		if len(si) == 0 {
			panic(fmt.Sprintf("dataset: SplitNonIID produced an empty shard (n=%d too large for %d samples)", n, ds.Len()))
		}
		x, labels := ds.Batch(si)
		out[i] = &Dataset{
			Name:    fmt.Sprintf("%s/noniid%d", ds.Name, i),
			X:       x,
			Labels:  labels,
			Classes: ds.Classes,
			C:       ds.C, H: ds.H, W: ds.W,
		}
	}
	return out
}

// labelHistogram counts samples per class.
func labelHistogram(ds *Dataset) []int {
	h := make([]int, ds.Classes)
	for _, l := range ds.Labels {
		h[l]++
	}
	return h
}

// LabelSkew quantifies how far a shard's class distribution is from the
// parent's, as total-variation distance in [0, 1].
func LabelSkew(shard, parent *Dataset) float64 {
	hs, hp := labelHistogram(shard), labelHistogram(parent)
	tv := 0.0
	for c := 0; c < parent.Classes; c++ {
		ps := float64(hs[c]) / float64(shard.Len())
		pp := float64(hp[c]) / float64(parent.Len())
		d := ps - pp
		if d < 0 {
			d = -d
		}
		tv += d
	}
	return tv / 2
}
