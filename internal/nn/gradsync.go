package nn

import (
	"fmt"

	"capes/internal/tensor"
)

// Gradient-arena exchange for data-parallel cluster training. The flat
// param/grad arenas (see MLP.FlatParams/FlatGrads) make an all-reduce a
// single contiguous []float32 exchange: followers export their gradient
// arena onto the wire, the leader accumulates the frames in a fixed
// follower-rank order into a float64 buffer, and the mean lands back in
// the leader's gradient arena for the fused Adam sweep.
//
// The accumulator is float64 on purpose, and for two reasons:
//
//   - determinism: float addition is not associative, so the reduction
//     runs in rank order — but float64 goes further: sums of float32
//     gradients are *exact* in float64 up to ~2^29 worker terms, so the
//     mean is independent of how the same multiset of frames is grouped;
//   - fidelity: N workers feeding identical minibatches produce a mean
//     bit-identical to any single worker's gradient (Σ g / N round-trips
//     through float64 exactly), which is what lets the cluster
//     determinism suite diff an N-worker trajectory against the
//     single-process golden run bit for bit.

// AccumulateFlat adds src element-wise into the float64 accumulator.
// Exact for float32 sources (each term widens losslessly).
func AccumulateFlat[E tensor.Element](acc []float64, src []E) {
	if len(acc) != len(src) {
		panic(fmt.Sprintf("nn: accumulate %d grads into %d-slot accumulator", len(src), len(acc)))
	}
	for i, v := range src {
		acc[i] += float64(v)
	}
}

// MeanInto writes acc[i]/n into dst, rounding once per element to the
// working precision — the aggregated gradient the leader hands to
// Adam.FusedStep.
func MeanInto[E tensor.Element](dst []E, acc []float64, n int) {
	if len(dst) != len(acc) {
		panic(fmt.Sprintf("nn: mean of %d-slot accumulator into %d grads", len(acc), len(dst)))
	}
	if n <= 0 {
		panic(fmt.Sprintf("nn: mean over %d workers", n))
	}
	inv := float64(n)
	for i, v := range acc {
		dst[i] = E(v / inv)
	}
}

// ExportFlat converts a flat arena to the float32 wire representation
// (the engine precision, so the deployed path is a straight copy; a
// float64 reference agent rounds once per element). dst is resized as
// needed and returned.
func ExportFlat[E tensor.Element](dst []float32, src []E) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	tensor.Convert(dst, src)
	return dst
}
