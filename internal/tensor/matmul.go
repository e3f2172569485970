package tensor

import (
	"fmt"
	"sync"
)

// Matrix-multiplication kernels. Each public entry point (MulInto,
// MulTransAInto, MulTransBInto) validates shapes, then runs a
// cache-blocked kernel — serially for small products, sharded over the
// package worker pool (pool.go) for large ones. The row kernels below
// dispatch on the element type to the SIMD specializations in
// matmul32.go / matmul64.go (tier-dispatched vector inner loops plus
// packed-panel operand layout). The naive reference kernels the package
// started with are kept at the bottom of this file — always at their
// instantiated precision — and the property tests in matmul_test.go
// hold the optimized kernels to float64 references within
// precision-scaled reassociation tolerance on ragged shapes.
//
// Blocking constants: a blockK×blockJ tile of the right-hand operand is
// blockK*blockJ elements — 256 KiB at float64, 128 KiB at float32 —
// sized to stay resident in L2 while every destination row in the shard
// sweeps it; the destination row segment (blockJ elements) lives in L1.
const (
	blockK = 128
	blockJ = 256
)

// Panel packing: when the right-hand operand is wider than one tile,
// the SIMD kernels repack the active blockK×blockJ tile into one of
// these pooled buffers so its rows become contiguous (pitch seg instead
// of b.Cols) and the vector inner loops stream unit-stride memory
// whatever the caller's row pitch. Packing copies each tile element
// once; it pays for itself only when enough destination rows reuse the
// panel, so shards processing fewer than panelMinRows rows read b
// directly. The pooled pointers keep parallel multiplications
// allocation-free in steady state (one panel per in-flight shard).
const panelMinRows = 8

var (
	panelPool32 = sync.Pool{New: func() any { b := make([]float32, blockK*blockJ); return &b }}
	panelPool64 = sync.Pool{New: func() any { b := make([]float64, blockK*blockJ); return &b }}
)

// parallelFlops is the multiply-accumulate count above which a product
// is worth sharding across the worker pool. Products below it — notably
// every 1×N action-path multiplication — run serially on the calling
// goroutine with zero synchronization overhead.
const parallelFlops = 1 << 17

// MulInto computes dst = a·b. dst must be a.Rows × b.Cols and must not
// alias a or b.
func MulInto[E Element](dst, a, b *Matrix[E]) {
	if a.Cols != b.Rows {
		panic(dimErr("Mul", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Mul dst is %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if a.Rows*a.Cols*b.Cols >= parallelFlops {
		dispatch(mmMul, dst, a, b, a.Rows)
		return
	}
	mulRows(dst, a, b, 0, a.Rows)
}

// MulTransAInto computes dst = aᵀ·b without materializing aᵀ.
// dst must be a.Cols × b.Cols and must not alias a or b.
func MulTransAInto[E Element](dst, a, b *Matrix[E]) {
	if a.Rows != b.Rows {
		panic(dimErr("MulTransA", a, b))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulTransA dst is %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if a.Rows*a.Cols*b.Cols >= parallelFlops {
		dispatch(mmMulTransA, dst, a, b, a.Cols)
		return
	}
	mulTransARows(dst, a, b, 0, a.Cols)
}

// MulTransBInto computes dst = a·bᵀ without materializing bᵀ.
// dst must be a.Rows × b.Rows and must not alias a or b.
func MulTransBInto[E Element](dst, a, b *Matrix[E]) {
	if a.Cols != b.Cols {
		panic(dimErr("MulTransB", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulTransB dst is %d×%d, want %d×%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if a.Rows*a.Cols*b.Rows >= parallelFlops {
		dispatch(mmMulTransB, dst, a, b, a.Rows)
		return
	}
	mulTransBRows(dst, a, b, 0, a.Rows)
}

// mulRows computes rows [lo, hi) of dst = a·b on the kernel for E.
func mulRows[E Element](dst, a, b *Matrix[E], lo, hi int) {
	if d, x, y, ok := asF32(dst, a, b); ok {
		mulRowsF32(d, x, y, lo, hi)
		return
	}
	d, x, y := asF64(dst, a, b)
	mulRowsF64(d, x, y, lo, hi)
}

// mulTransARows computes rows [lo, hi) of dst = aᵀ·b on the kernel for E.
func mulTransARows[E Element](dst, a, b *Matrix[E], lo, hi int) {
	if d, x, y, ok := asF32(dst, a, b); ok {
		mulTransAF32(d, x, y, lo, hi)
		return
	}
	d, x, y := asF64(dst, a, b)
	mulTransAF64(d, x, y, lo, hi)
}

// mulTransBRows computes rows [lo, hi) of dst = a·bᵀ on the kernel for E.
func mulTransBRows[E Element](dst, a, b *Matrix[E], lo, hi int) {
	if d, x, y, ok := asF32(dst, a, b); ok {
		mulTransBF32(d, x, y, lo, hi)
		return
	}
	d, x, y := asF64(dst, a, b)
	mulTransBF64(d, x, y, lo, hi)
}

// ---------------------------------------------------------------------------
// Naive reference kernels — the package's original implementations, kept
// as the golden reference for the kernel-equivalence property tests. At
// float64 they are the canonical results the optimized kernels of both
// precisions are held to (with tolerances scaled by Eps[E]).

func mulNaiveInto[E Element](dst, a, b *Matrix[E]) {
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func mulTransANaiveInto[E Element](dst, a, b *Matrix[E]) {
	dst.Zero()
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func mulTransBNaiveInto[E Element](dst, a, b *Matrix[E]) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum E
			for k, av := range arow {
				sum += av * brow[k]
			}
			drow[j] = sum
		}
	}
}
