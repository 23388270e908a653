package tensor

import "fmt"

// Matmul dispatch. Every entry point picks one of three kernel families
// from (tier, m, k, n) alone, in this order (gemm.go's "Dispatch order"
// has the reasons and the tier table):
//
//  1. small products → the legacy column-tiled 4-wide kernels below
//     (packing two operands costs more than it saves under
//     gemmMinWork multiply-adds);
//  2. a·b with at most gemmSkinnyMaxStrips (64) rows of a, a·bᵀ with at
//     most gemmSkinnyMaxPairs (36), and aᵀ·b with at most
//     gemmSkinnyMaxK (256) rows of a (a weight gradient: k is the
//     batch), on the AVX-512 tier → the skinny kernels
//     (gemm_skinny.go), which read the large operand in place instead
//     of packing it for a handful of rows;
//  3. everything else → the packed, register-blocked GEMM (gemm.go),
//     which absorbs the T1/T2 transposes into packing and runs the
//     widest micro-kernel the live tier has (AVX-512, AVX2+FMA or
//     portable Go).

const (
	// matMulGrain is the m·k·n product below which a matmul runs inline
	// instead of fanning out to the scheduler.
	matMulGrain = 1 << 15
	// mmTile is the column-tile width: four float64 accumulator rows of
	// this width occupy 16 KiB, comfortably inside L1 alongside the
	// streamed operand row.
	mmTile = 512
)

// MatMul computes the matrix product a·b of two rank-2 tensors
// (m, k)·(k, n) → (m, n).
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := New(m, n)
	matMulInto(out, a, b, m, k, n, false)
	return out
}

// MatMulInto computes out = a·b into the preallocated out (m, n).
func MatMulInto(out, a, b *Tensor) {
	m, k, n := checkMatMul(a, b)
	checkOutShape("MatMulInto", out, m, n)
	matMulInto(out, a, b, m, k, n, false)
}

// MatMulAdd computes out += a·b in place; out must be (m, n).
func MatMulAdd(out, a, b *Tensor) {
	m, k, n := checkMatMul(a, b)
	checkOutShape("MatMulAdd", out, m, n)
	matMulInto(out, a, b, m, k, n, true)
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.shape, b.shape))
	}
	return a.shape[0], a.shape[1], b.shape[1]
}

func checkOutShape(op string, out *Tensor, m, n int) {
	if len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s out shape %v, want (%d,%d)", op, out.shape, m, n))
	}
}

func matMulInto(out, a, b *Tensor, m, k, n int, accumulate bool) {
	if m*k*n >= gemmMinWork {
		if gemmSkinnyOK(m, gemmSkinnyMaxStrips) {
			gemmSkinny(out.Data, n, m, n, k, a.Data, b.Data, skinnyStrips, accumulate)
			return
		}
		gemm(out.Data, n, m, n, k, a.Data, k, 1, b.Data, n, 1, accumulate)
		return
	}
	matMulRows(out.Data, a.Data, b.Data, k, n, 0, m, accumulate)
}

// matMulRows computes out[i0:i1] (+)= a[i0:i1]·b, tiling the n columns.
func matMulRows(out, a, b []Elem, k, n, i0, i1 int, accumulate bool) {
	for j0 := 0; j0 < n; j0 += mmTile {
		j1 := j0 + mmTile
		if j1 > n {
			j1 = n
		}
		i := i0
		for ; i+4 <= i1; i += 4 {
			r0 := out[(i+0)*n+j0 : (i+0)*n+j1]
			// Re-slicing r1..r3 to len(r0) once lets the compiler drop
			// the bounds checks in the 4-wide accumulator loop below.
			r1 := out[(i+1)*n+j0 : (i+1)*n+j1][:len(r0)]
			r2 := out[(i+2)*n+j0 : (i+2)*n+j1][:len(r0)]
			r3 := out[(i+3)*n+j0 : (i+3)*n+j1][:len(r0)]
			if !accumulate {
				for j := range r0 {
					r0[j], r1[j], r2[j], r3[j] = 0, 0, 0, 0
				}
			}
			a0 := a[(i+0)*k : (i+1)*k]
			a1 := a[(i+1)*k : (i+2)*k]
			a2 := a[(i+2)*k : (i+3)*k]
			a3 := a[(i+3)*k : (i+4)*k]
			for kk := 0; kk < k; kk++ {
				v0, v1, v2, v3 := a0[kk], a1[kk], a2[kk], a3[kk]
				brow := b[kk*n+j0 : kk*n+j1]
				brow = brow[:len(r0)]
				for j, bv := range brow {
					r0[j] += v0 * bv
					r1[j] += v1 * bv
					r2[j] += v2 * bv
					r3[j] += v3 * bv
				}
			}
		}
		for ; i < i1; i++ {
			row := out[i*n+j0 : i*n+j1]
			if !accumulate {
				for j := range row {
					row[j] = 0
				}
			}
			arow := a[i*k : (i+1)*k]
			for kk, av := range arow {
				brow := b[kk*n+j0 : kk*n+j1]
				brow = brow[:len(row)]
				for j, bv := range brow {
					row[j] += av * bv
				}
			}
		}
	}
}

// MatMulT1 computes aᵀ·b for a (k, m), b (k, n) → (m, n) without
// materialising the transpose.
func MatMulT1(a, b *Tensor) *Tensor {
	k, m, n := checkMatMulT1(a, b)
	out := New(m, n)
	matMulT1Into(out, a, b, k, m, n, false)
	return out
}

// MatMulT1Into computes out = aᵀ·b into the preallocated out (m, n).
func MatMulT1Into(out, a, b *Tensor) {
	k, m, n := checkMatMulT1(a, b)
	checkOutShape("MatMulT1Into", out, m, n)
	matMulT1Into(out, a, b, k, m, n, false)
}

// MatMulT1Add computes out += aᵀ·b in place; out must be (m, n). It is
// the natural shape of weight-gradient accumulation (dW += xᵀ·g).
func MatMulT1Add(out, a, b *Tensor) {
	k, m, n := checkMatMulT1(a, b)
	checkOutShape("MatMulT1Add", out, m, n)
	matMulT1Into(out, a, b, k, m, n, true)
}

func checkMatMulT1(a, b *Tensor) (k, m, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulT1 shapes %v %v", a.shape, b.shape))
	}
	return a.shape[0], a.shape[1], b.shape[1]
}

func matMulT1Into(out, a, b *Tensor, k, m, n int, accumulate bool) {
	if m*k*n >= gemmMinWork {
		if gemmSkinnyOK(k, gemmSkinnyMaxK) {
			gemmSkinny(out.Data, n, m, n, k, a.Data, b.Data, skinnyBlocks, accumulate)
			return
		}
		// Packing reads A through the (rs=1, cs=m) transposed view, so
		// the backward passes never strided-read inside a kernel.
		gemm(out.Data, n, m, n, k, a.Data, 1, m, b.Data, n, 1, accumulate)
		return
	}
	matMulT1Rows(out.Data, a.Data, b.Data, k, m, n, 0, m, accumulate)
}

// matMulT1Rows computes out[i0:i1] (+)= (aᵀ·b)[i0:i1] where a is
// (k, m): out[i][j] = Σ_kk a[kk][i]·b[kk][j].
func matMulT1Rows(out, a, b []Elem, k, m, n, i0, i1 int, accumulate bool) {
	for j0 := 0; j0 < n; j0 += mmTile {
		j1 := j0 + mmTile
		if j1 > n {
			j1 = n
		}
		i := i0
		for ; i+4 <= i1; i += 4 {
			r0 := out[(i+0)*n+j0 : (i+0)*n+j1]
			r1 := out[(i+1)*n+j0 : (i+1)*n+j1][:len(r0)]
			r2 := out[(i+2)*n+j0 : (i+2)*n+j1][:len(r0)]
			r3 := out[(i+3)*n+j0 : (i+3)*n+j1][:len(r0)]
			if !accumulate {
				for j := range r0 {
					r0[j], r1[j], r2[j], r3[j] = 0, 0, 0, 0
				}
			}
			for kk := 0; kk < k; kk++ {
				acol := a[kk*m+i : kk*m+i+4]
				v0, v1, v2, v3 := acol[0], acol[1], acol[2], acol[3]
				brow := b[kk*n+j0 : kk*n+j1]
				brow = brow[:len(r0)]
				for j, bv := range brow {
					r0[j] += v0 * bv
					r1[j] += v1 * bv
					r2[j] += v2 * bv
					r3[j] += v3 * bv
				}
			}
		}
		for ; i < i1; i++ {
			row := out[i*n+j0 : i*n+j1]
			if !accumulate {
				for j := range row {
					row[j] = 0
				}
			}
			for kk := 0; kk < k; kk++ {
				v := a[kk*m+i]
				brow := b[kk*n+j0 : kk*n+j1]
				brow = brow[:len(row)]
				for j, bv := range brow {
					row[j] += v * bv
				}
			}
		}
	}
}

// MatMulT2 computes a·bᵀ for a (m, k), b (n, k) → (m, n) without
// materialising the transpose.
func MatMulT2(a, b *Tensor) *Tensor {
	m, k, n := checkMatMulT2(a, b)
	out := New(m, n)
	matMulT2Into(out, a, b, m, k, n, false)
	return out
}

// MatMulT2Into computes out = a·bᵀ into the preallocated out (m, n).
func MatMulT2Into(out, a, b *Tensor) {
	m, k, n := checkMatMulT2(a, b)
	checkOutShape("MatMulT2Into", out, m, n)
	matMulT2Into(out, a, b, m, k, n, false)
}

// MatMulT2Add computes out += a·bᵀ in place; out must be (m, n).
func MatMulT2Add(out, a, b *Tensor) {
	m, k, n := checkMatMulT2(a, b)
	checkOutShape("MatMulT2Add", out, m, n)
	matMulT2Into(out, a, b, m, k, n, true)
}

func checkMatMulT2(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulT2 shapes %v %v", a.shape, b.shape))
	}
	return a.shape[0], a.shape[1], b.shape[0]
}

func matMulT2Into(out, a, b *Tensor, m, k, n int, accumulate bool) {
	if m*k*n >= gemmMinWork {
		if gemmSkinnyOK(m, gemmSkinnyMaxPairs) {
			gemmSkinny(out.Data, n, m, n, k, a.Data, b.Data, skinnyPairs, accumulate)
			return
		}
		// B is a stored transpose: packing reads it through the
		// (rs=1, cs=k) view, one contiguous source run per column.
		gemm(out.Data, n, m, n, k, a.Data, k, 1, b.Data, 1, k, accumulate)
		return
	}
	matMulT2Rows(out.Data, a.Data, b.Data, k, n, 0, m, accumulate)
}

// matMulT2Rows computes out[i0:i1] (+)= (a·bᵀ)[i0:i1]: each output
// element is a dot product of rows; four b rows are consumed per pass
// over a row of a.
func matMulT2Rows(out, a, b []Elem, k, n, i0, i1 int, accumulate bool) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			b0 = b0[:len(arow)]
			b1 = b1[:len(arow)]
			b2 = b2[:len(arow)]
			b3 = b3[:len(arow)]
			var s0, s1, s2, s3 Elem
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			if accumulate {
				orow[j] += s0
				orow[j+1] += s1
				orow[j+2] += s2
				orow[j+3] += s3
			} else {
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s Elem
			for kk, av := range arow {
				s += av * brow[kk]
			}
			if accumulate {
				orow[j] += s
			} else {
				orow[j] = s
			}
		}
	}
}
