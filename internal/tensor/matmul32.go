package tensor

// float32 kernel specializations. The row kernels in matmul.go dispatch
// here when the element type is float32: cache-blocked, sharded by
// rows, with the innermost loops on the tier-dispatched vector
// primitives of simd_amd64.go (8 AVX2 / 4 SSE float32 lanes per
// instruction, scalar elsewhere — the wrappers handle ragged tails).
// Each row's arithmetic is independent of the shard layout and of
// whether the operand tile was packed, so worker count still never
// changes results bit for bit.

// mulRowsF32 is mulRows for float32: the (k-unrolled × j-segment) inner
// update is a 4-operand AXPY over the destination segment. When b is
// wider than one tile, the active blockK×blockJ tile is repacked once
// per block into a contiguous panel (rows seg apart instead of b.Cols
// apart) that every destination row in the shard then sweeps — the
// vector kernels stream unit-stride panel rows that share cache lines
// regardless of b's row pitch. Packing copies each tile element once
// and is amortized over the hi-lo destination rows, so it is skipped
// for thin shards (and unnecessary when n ≤ blockJ: whole rows of b are
// already contiguous).
func mulRowsF32(dst, a, b *Matrix[float32], lo, hi int) {
	n, kTot := b.Cols, a.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
	}
	var panel []float32
	pack := n > blockJ && hi-lo >= panelMinRows
	if pack {
		pp := panelPool32.Get().(*[]float32)
		panel = *pp
		defer panelPool32.Put(pp)
	}
	for k0 := 0; k0 < kTot; k0 += blockK {
		k1 := min(k0+blockK, kTot)
		kext := k1 - k0
		for j0 := 0; j0 < n; j0 += blockJ {
			j1 := min(j0+blockJ, n)
			seg := j1 - j0
			// bp holds the active tile: either the packed panel (row
			// pitch seg) or a view into b itself (row pitch n).
			bp, pitch := b.Data[k0*n+j0:], n
			if pack {
				for k := 0; k < kext; k++ {
					copy(panel[k*seg:(k+1)*seg], b.Data[(k0+k)*n+j0:(k0+k)*n+j1])
				}
				bp, pitch = panel, seg
			}
			// Register-block pairs of destination rows: saxpy4x2 feeds
			// two accumulating rows from one load of the tile vectors,
			// halving the dominant tile read traffic. Per-row rounding
			// is unchanged, and shard chunks are even, so pairing is
			// identical at any worker count.
			i := lo
			for ; i+2 <= hi; i += 2 {
				arow0 := a.Data[i*kTot+k0 : i*kTot+k1]
				arow1 := a.Data[(i+1)*kTot+k0 : (i+1)*kTot+k1]
				drow0 := dst.Data[i*n+j0 : i*n+j1]
				drow1 := dst.Data[(i+1)*n+j0 : (i+1)*n+j1]
				k := 0
				for ; k+4 <= kext; k += 4 {
					b0 := bp[k*pitch : k*pitch+seg]
					b1 := bp[(k+1)*pitch : (k+1)*pitch+seg]
					b2 := bp[(k+2)*pitch : (k+2)*pitch+seg]
					b3 := bp[(k+3)*pitch : (k+3)*pitch+seg]
					saxpy4x2(drow0, drow1, b0, b1, b2, b3,
						arow0[k], arow0[k+1], arow0[k+2], arow0[k+3],
						arow1[k], arow1[k+1], arow1[k+2], arow1[k+3])
				}
				for ; k < kext; k++ {
					brow := bp[k*pitch : k*pitch+seg]
					if av := arow0[k]; av != 0 {
						saxpy1(drow0, brow, av)
					}
					if av := arow1[k]; av != 0 {
						saxpy1(drow1, brow, av)
					}
				}
			}
			for ; i < hi; i++ {
				arow := a.Data[i*kTot+k0 : i*kTot+k1]
				drow := dst.Data[i*n+j0 : i*n+j1]
				k := 0
				for ; k+4 <= kext; k += 4 {
					b0 := bp[k*pitch : k*pitch+seg]
					b1 := bp[(k+1)*pitch : (k+1)*pitch+seg]
					b2 := bp[(k+2)*pitch : (k+2)*pitch+seg]
					b3 := bp[(k+3)*pitch : (k+3)*pitch+seg]
					saxpy4(drow, b0, b1, b2, b3, arow[k], arow[k+1], arow[k+2], arow[k+3])
				}
				for ; k < kext; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					saxpy1(drow, bp[k*pitch:k*pitch+seg], av)
				}
			}
		}
	}
}

// mulTransAF32 is mulTransARows for float32: each destination row is an
// AXPY accumulation of b's rows weighted by one (strided) column of a.
// b's rows are read whole and are already unit-stride, so no packing is
// needed here.
func mulTransAF32(dst, a, b *Matrix[float32], lo, hi int) {
	n, kTot, ac := b.Cols, a.Rows, a.Cols
	// Register-block pairs of destination rows (adjacent columns of a,
	// so the strided a loads share cache lines): saxpy4x2 streams each
	// row of b once for both accumulating rows. Shard chunks are even,
	// so pairing — and the all-zero quad skip, decided per pair — is
	// identical at any worker count.
	i := lo
	for ; i+2 <= hi; i += 2 {
		drow0 := dst.Data[i*n : (i+1)*n]
		drow1 := dst.Data[(i+1)*n : (i+2)*n]
		for j := range drow0 {
			drow0[j] = 0
		}
		for j := range drow1 {
			drow1[j] = 0
		}
		k := 0
		for ; k+4 <= kTot; k += 4 {
			a00 := a.Data[k*ac+i]
			a01 := a.Data[(k+1)*ac+i]
			a02 := a.Data[(k+2)*ac+i]
			a03 := a.Data[(k+3)*ac+i]
			a10 := a.Data[k*ac+i+1]
			a11 := a.Data[(k+1)*ac+i+1]
			a12 := a.Data[(k+2)*ac+i+1]
			a13 := a.Data[(k+3)*ac+i+1]
			if a00 == 0 && a01 == 0 && a02 == 0 && a03 == 0 &&
				a10 == 0 && a11 == 0 && a12 == 0 && a13 == 0 {
				continue
			}
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			saxpy4x2(drow0, drow1, b0, b1, b2, b3,
				a00, a01, a02, a03, a10, a11, a12, a13)
		}
		for ; k < kTot; k++ {
			brow := b.Data[k*n : (k+1)*n]
			if av := a.Data[k*ac+i]; av != 0 {
				saxpy1(drow0, brow, av)
			}
			if av := a.Data[k*ac+i+1]; av != 0 {
				saxpy1(drow1, brow, av)
			}
		}
	}
	for ; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kTot; k += 4 {
			a0 := a.Data[k*ac+i]
			a1 := a.Data[(k+1)*ac+i]
			a2 := a.Data[(k+2)*ac+i]
			a3 := a.Data[(k+3)*ac+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b.Data[k*n : (k+1)*n]
			b1 := b.Data[(k+1)*n : (k+2)*n]
			b2 := b.Data[(k+2)*n : (k+3)*n]
			b3 := b.Data[(k+3)*n : (k+4)*n]
			saxpy4(drow, b0, b1, b2, b3, a0, a1, a2, a3)
		}
		for ; k < kTot; k++ {
			av := a.Data[k*ac+i]
			if av == 0 {
				continue
			}
			saxpy1(drow, b.Data[k*n:(k+1)*n], av)
		}
	}
}

// mulTransBF32 is mulTransBRows for float32: each output element is a
// vector dot product along the shared k axis, with b tiled so the
// active rows stay cache-resident. Both operand rows are already
// unit-stride, so no packing is needed here either.
func mulTransBF32(dst, a, b *Matrix[float32], lo, hi int) {
	kTot, dn := a.Cols, b.Rows
	const blockTB = 64
	for j0 := 0; j0 < dn; j0 += blockTB {
		j1 := min(j0+blockTB, dn)
		for i := lo; i < hi; i++ {
			arow := a.Data[i*kTot : (i+1)*kTot]
			drow := dst.Data[i*dn : (i+1)*dn]
			// Pair adjacent output columns: sdot2 streams arow once for
			// both dot products, and each column rounds exactly as a lone
			// sdot, so the pairing never changes results bit for bit.
			j := j0
			for ; j+2 <= j1; j += 2 {
				drow[j], drow[j+1] = sdot2(arow,
					b.Data[j*kTot:(j+1)*kTot], b.Data[(j+1)*kTot:(j+2)*kTot])
			}
			for ; j < j1; j++ {
				drow[j] = sdot(arow, b.Data[j*kTot:(j+1)*kTot])
			}
		}
	}
}

// asF32 reports whether E is float32 and returns the reinterpreted
// headers.
func asF32[E Element](dst, a, b *Matrix[E]) (d, x, y *Matrix[float32], ok bool) {
	d, ok = any(dst).(*Matrix[float32])
	if !ok {
		return nil, nil, nil, false
	}
	return d, any(a).(*Matrix[float32]), any(b).(*Matrix[float32]), true
}
