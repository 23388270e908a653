package dataset

import (
	"math/rand"
)

// Seven-segment encodings: segments are numbered
//
//	 _0_
//	1|   |2
//	 |_3_|
//	4|   |5
//	 |_6_|
//
// which is enough glyph variety for ten visually distinct classes.
var segDigits = [10][7]bool{
	{true, true, true, false, true, true, true},     // 0
	{false, false, true, false, false, true, false}, // 1
	{true, false, true, true, true, false, true},    // 2
	{true, false, true, true, false, true, true},    // 3
	{false, true, true, true, false, true, false},   // 4
	{true, true, false, true, false, true, true},    // 5
	{true, true, false, true, true, true, true},     // 6
	{true, false, true, false, false, true, false},  // 7
	{true, true, true, true, true, true, true},      // 8
	{true, true, true, true, false, true, true},     // 9
}

// Every digit is translated by up to digitJitter pixels on each axis and
// carries additive Gaussian noise of sigma digitNoise.
const (
	digitJitter = 1
	digitNoise  = 0.08
)

// SynthDigits generates n procedural digit images of shape
// (n, 1, 28, 28) with labels 0..9, the MNIST stand-in.
func SynthDigits(n int, seed int64) *Dataset { return SynthDigitsSize(n, seed, 28) }

// SynthDigitsSize generates the same glyphs at an arbitrary square size
// (n, 1, size, size).
func SynthDigitsSize(n int, seed int64, size int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	s := size
	ds := &Dataset{Name: "synthdigits", Classes: 10, C: 1, H: s, W: s}
	ds.X = newImageTensor(n, 1, s, s)
	ds.Labels = make([]int, n)
	vol := s * s
	for i := 0; i < n; i++ {
		label := rng.Intn(10)
		ds.Labels[i] = label
		im := newImg(ds.X.Data[i*vol:(i+1)*vol], 1, s, s)
		drawDigit(im, label, rng, s)
		addNoise(im.data, digitNoise, rng)
	}
	return ds
}

func drawDigit(im *img, d int, rng *rand.Rand, s int) {
	// Glyph box: roughly centred, height ~60% of the image.
	gh := s * 3 / 5
	gw := s * 2 / 5
	th := max(2, s/9) // stroke thickness
	oy := (s-gh)/2 + rng.Intn(2*digitJitter+1) - digitJitter
	ox := (s-gw)/2 + rng.Intn(2*digitJitter+1) - digitJitter
	ink := 0.75 + 0.25*rng.Float64()
	segs := segDigits[d]
	half := gh / 2
	// 0: top bar
	if segs[0] {
		im.fillRect(0, oy, ox, oy+th, ox+gw, ink)
	}
	// 1: upper-left
	if segs[1] {
		im.fillRect(0, oy, ox, oy+half, ox+th, ink)
	}
	// 2: upper-right
	if segs[2] {
		im.fillRect(0, oy, ox+gw-th, oy+half, ox+gw, ink)
	}
	// 3: middle bar
	if segs[3] {
		im.fillRect(0, oy+half-th/2, ox, oy+half+th-th/2, ox+gw, ink)
	}
	// 4: lower-left
	if segs[4] {
		im.fillRect(0, oy+half, ox, oy+gh, ox+th, ink)
	}
	// 5: lower-right
	if segs[5] {
		im.fillRect(0, oy+half, ox+gw-th, oy+gh, ox+gw, ink)
	}
	// 6: bottom bar
	if segs[6] {
		im.fillRect(0, oy+gh-th, ox, oy+gh, ox+gw, ink)
	}
}
