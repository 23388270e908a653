package mdgan

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mdgan/internal/nn"
	"mdgan/internal/render"
	"mdgan/internal/tensor"
)

// Checkpoint framing. Version 2 prefixes a magic header so format
// changes are explicit; the parameter frames that follow (nn.AppendParams
// over Generator.Params: the network's, then the conditioning embedding)
// carry their own dtype byte, so a checkpoint written by a float64
// build loads into a float32 build and vice versa (values convert on
// read). Files written before the header existed — bare concatenated
// pre-dtype tensor frames — are detected by the absence of the magic
// and still load: the tensor decoder accepts legacy frames natively.
var checkpointMagic = []byte{'M', 'D', 'G', 2}

// checkpointWriteWrap, when non-nil, wraps the checkpoint byte sink —
// a test seam for injecting mid-write failures without touching the
// filesystem semantics under test.
var checkpointWriteWrap func(io.Writer) io.Writer

// SaveGenerator checkpoints a trained generator's parameters to a file.
// The architecture is not stored: reload into a generator built from
// the same Arch and seed-independent shape.
//
// The write is atomic with respect to the destination path: parameters
// land in a same-directory temp file which is fsynced and then renamed
// over path, so a crash (or write error) mid-checkpoint can never leave
// a truncated file where the last good checkpoint was. This is what
// makes the serving tier's hot-reload safe to point at a path that a
// trainer is still periodically rewriting.
func SaveGenerator(g *Generator, path string) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must stage its temp file in the destination's
		// directory (the cwd), not os.TempDir() — rename across
		// filesystems (tmpfs /tmp) fails with EXDEV, and a cross-dir
		// rename is not the atomic same-directory replace promised above.
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("mdgan: save generator: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var w io.Writer = f
	if checkpointWriteWrap != nil {
		w = checkpointWriteWrap(f)
	}
	ps := g.Params()
	buf := make([]byte, 0, int64(len(checkpointMagic))+nn.EncodedParamSize(ps, tensor.NativeDType))
	buf = nn.AppendParams(append(buf, checkpointMagic...), ps, tensor.NativeDType)
	if _, err = w.Write(buf); err != nil {
		return fmt.Errorf("mdgan: save generator: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("mdgan: save generator: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("mdgan: save generator: %w", err)
	}
	// CreateTemp's 0600 would tighten what os.Create used to grant;
	// restore the conventional mode before publishing the file.
	if err = os.Chmod(tmp, 0o644); err != nil {
		return fmt.Errorf("mdgan: save generator: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("mdgan: save generator: %w", err)
	}
	return nil
}

// LoadGenerator restores parameters saved with SaveGenerator into g,
// which must have the same architecture. Both current (versioned,
// dtype-framed) and pre-version float64 checkpoints load.
func LoadGenerator(g *Generator, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("mdgan: load generator: %w", err)
	}
	defer f.Close()
	var hdr [4]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return fmt.Errorf("mdgan: load generator: %w", err)
	}
	var r io.Reader = f
	if !bytes.Equal(hdr[:n], checkpointMagic) {
		if n == 4 && bytes.Equal(hdr[:3], checkpointMagic[:3]) {
			return fmt.Errorf("mdgan: load generator: unsupported checkpoint version %d", hdr[3])
		}
		// Legacy checkpoint (no magic): the four bytes are the first
		// parameter's rank word — replay them ahead of the rest.
		r = io.MultiReader(bytes.NewReader(hdr[:n]), f)
	}
	if _, err := nn.ReadParams(r, g.Params()); err != nil {
		return fmt.Errorf("mdgan: load generator: %w", err)
	}
	// A well-formed checkpoint ends exactly where the parameters do.
	// Trailing bytes mean the file is not what it claims to be — a
	// concatenation, a partial overwrite by a larger older file, or a
	// different architecture's checkpoint whose prefix happened to
	// parse — and loading the prefix silently would serve garbage.
	var tail [1]byte
	if n, _ := io.ReadFull(f, tail[:]); n != 0 {
		return fmt.Errorf("mdgan: load generator: %s: trailing bytes after parameters (truncated overwrite or wrong architecture?)", path)
	}
	return nil
}

// SaveSampleGrid renders an image tensor (N, C, H, W) as a PNG grid —
// qualitative inspection to complement the MS/FID numbers.
func SaveSampleGrid(path string, x *Tensor, cols int) error {
	return render.SavePNG(path, x, cols)
}
