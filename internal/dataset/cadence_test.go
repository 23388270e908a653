package dataset

import (
	"testing"

	"mdgan/internal/tensor"
)

// shardsOf builds one empty-featured shard per size.
func shardsOf(sizes ...int) []*Dataset {
	out := make([]*Dataset, len(sizes))
	for i, m := range sizes {
		out[i] = &Dataset{X: tensor.New(m, 1), Labels: make([]int, m)}
	}
	return out
}

// Regression (PR 3): the swap cadence used truncating integer division,
// m·E/b, so small shards systematically swapped too often — m=100, E=1,
// b=64 gave 1 iteration instead of the nearest-integer 2 (true cadence
// 1.5625), and any m·E < b collapsed to every iteration. The cadence is
// round-to-nearest with a floor of 1, computed from the MINIMUM shard
// size, so workers with uneven shards share one schedule and can never
// drift apart. FL-GAN's round length goes through the same rule.
func TestEpochIters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sizes  []int
		epochs int
		batch  int
		want   int
	}{
		{"exact-division", []int{100}, 1, 10, 10},
		{"round-up", []int{100}, 1, 64, 2},        // 1.5625 → 2 (pre-fix: 1)
		{"round-down", []int{100}, 1, 70, 1},      // 1.43 → 1
		{"tiny-shard-floor", []int{30}, 1, 64, 1}, // 0.47 → floor at 1
		{"multi-epoch", []int{100}, 3, 64, 5},     // 4.6875 → 5 (pre-fix: 4)
		{"half-up", []int{96}, 1, 64, 2},          // exactly 1.5 → 2
		{"uneven-shards-use-min", []int{999, 100, 250}, 1, 64, 2},
		{"uneven-shards-exact", []int{50, 200, 200}, 2, 10, 10},
		{"disabled-negative", []int{100}, -1, 10, 0},
		{"disabled-zero", []int{100}, 0, 10, 0},
		{"no-shards", nil, 1, 10, 0},
		{"large-shard", []int{50000}, 1, 10, 5000},
	} {
		if got := EpochIters(shardsOf(tc.sizes...), tc.epochs, tc.batch); got != tc.want {
			t.Errorf("%s: EpochIters(%v, E=%d, b=%d) = %d, want %d",
				tc.name, tc.sizes, tc.epochs, tc.batch, got, tc.want)
		}
	}
}

// Every worker derives its schedule from the single cluster-wide
// cadence: the same shard multiset in any order yields the same value.
func TestEpochItersOrderInvariant(t *testing.T) {
	want := EpochIters(shardsOf(120, 480, 77, 3000), 2, 32)
	for _, p := range [][]int{
		{3000, 77, 480, 120},
		{77, 3000, 120, 480},
	} {
		if got := EpochIters(shardsOf(p...), 2, 32); got != want {
			t.Fatalf("order-dependent cadence: %v vs %v", got, want)
		}
	}
}
