package dataset

import (
	"math/rand"

	"mdgan/internal/tensor"
)

// SynthFaces generates n procedural face compositions of shape
// (n, 3, 32, 32) — the CelebA stand-in of the Fig. 6 experiment.
// Faces combine three binary attributes (skin tone, eye colour, mouth
// expression), yielding 8 attribute classes the scoring classifier can
// learn; CelebA itself is unlabelled for our purposes, but the Inception
// substitute needs classes to produce IS/FID.
func SynthFaces(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	const s = 32
	ds := &Dataset{Name: "synthfaces", Classes: 8, C: 3, H: s, W: s}
	ds.X = newImageTensor(n, 3, s, s)
	ds.Labels = make([]int, n)
	vol := 3 * s * s
	for i := 0; i < n; i++ {
		skin := rng.Intn(2)
		eyes := rng.Intn(2)
		mouth := rng.Intn(2)
		ds.Labels[i] = skin<<2 | eyes<<1 | mouth
		drawFace(ds.X.Data[i*vol:(i+1)*vol], s, skin, eyes, mouth, rng)
	}
	return ds
}

func drawFace(data []tensor.Elem, s, skin, eyes, mouth int, rng *rand.Rand) {
	im := newImg(data, 3, s, s)
	// Background hue: random muted colour.
	bg := [3]float64{
		-0.8 + 0.4*rng.Float64(),
		-0.8 + 0.4*rng.Float64(),
		-0.8 + 0.4*rng.Float64(),
	}
	im.fillRect(0, 0, 0, s, s, bg[0])
	im.fillRect(1, 0, 0, s, s, bg[1])
	im.fillRect(2, 0, 0, s, s, bg[2])

	// Head: ellipse near the centre with jitter.
	cy := s/2 + rng.Intn(3) - 1
	cx := s/2 + rng.Intn(3) - 1
	ry := s*2/5 + rng.Intn(2)
	rx := s/3 + rng.Intn(2)
	skinTones := [2][3]float64{
		{0.9, 0.55, 0.25},  // light
		{0.35, 0.0, -0.35}, // dark
	}
	im.fillEllipse(cy, cx, ry, rx, skinTones[skin])

	// Eyes: two small ellipses; colour attribute.
	eyeColours := [2][3]float64{
		{-0.9, -0.9, -0.9}, // dark
		{-0.6, 0.2, 0.9},   // blue
	}
	er := max(1, s/16)
	im.fillEllipse(cy-ry/3, cx-rx/2, er, er, eyeColours[eyes])
	im.fillEllipse(cy-ry/3, cx+rx/2, er, er, eyeColours[eyes])

	// Mouth: smile (wide, thin) or neutral (short, thick).
	mc := [3]float64{0.8, -0.6, -0.5}
	if mouth == 0 {
		im.fillEllipse(cy+ry/2, cx, max(1, s/24), rx/2, mc)
	} else {
		im.fillEllipse(cy+ry/2, cx, max(1, s/12), rx/4, mc)
	}
	addNoise(data, 0.06, rng)
}
