package nn

import (
	"math"
	"testing"

	"capes/internal/tensor"
)

// TestClusterReductionMeanOfIdenticalGradsIsExact: folding N identical
// float32 gradients into the float64 accumulator and taking the mean
// gives back the gradient bit for bit — the property that keeps an
// N-worker cluster on the single-process golden trajectory.
func TestClusterReductionMeanOfIdenticalGradsIsExact(t *testing.T) {
	g := []float32{1.1, -3.3e-7, 6.5e4, math.SmallestNonzeroFloat32, -0.0, 123.456}
	for _, workers := range []int{1, 2, 3, 7} {
		acc := make([]float64, len(g))
		for w := 0; w < workers; w++ {
			AccumulateFlat(acc, g)
		}
		mean := make([]float32, len(g))
		MeanInto(mean, acc, workers)
		for i := range g {
			if math.Float32bits(mean[i]) != math.Float32bits(g[i]) && !(mean[i] == 0 && g[i] == 0) {
				t.Fatalf("%d workers: mean[%d] = %v, want %v", workers, i, mean[i], g[i])
			}
		}
	}
}

// TestClusterReductionIsOrderIndependent: the float64 sum of float32
// terms is exact, so the mean does not depend on the order the frames
// are folded in — while the same fold in float32 does.
func TestClusterReductionIsOrderIndependent(t *testing.T) {
	frames := [][]float32{{1e8}, {1}, {-1e8}, {1}}
	reduce := func(order []int) float32 {
		acc := make([]float64, 1)
		for _, r := range order {
			AccumulateFlat(acc, frames[r])
		}
		out := make([]float32, 1)
		MeanInto(out, acc, len(order))
		return out[0]
	}
	want := reduce([]int{0, 1, 2, 3})
	if want != 0.5 {
		t.Fatalf("mean = %v, want 0.5", want)
	}
	for _, order := range [][]int{{3, 2, 1, 0}, {0, 2, 1, 3}, {1, 3, 0, 2}} {
		if got := reduce(order); got != want {
			t.Fatalf("order %v: mean %v, want %v", order, got, want)
		}
	}
	var f32 float32
	for _, fr := range frames {
		f32 += fr[0]
	}
	if f32/4 == want {
		t.Fatal("float32 fold was exact too; the fixture no longer shows why the accumulator is float64")
	}
}

// TestClusterReductionRejectsShapeMismatch: a frame or accumulator of
// the wrong width, or a mean over no workers, is a programming error.
func TestClusterReductionRejectsShapeMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"accumulate": func() { AccumulateFlat(make([]float64, 2), []float32{1}) },
		"mean width": func() { MeanInto(make([]float32, 2), make([]float64, 3), 1) },
		"mean zero":  func() { MeanInto(make([]float32, 1), make([]float64, 1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestExportImportFlat: the float32 wire form round-trips a float32
// arena exactly through tensor.Convert (the import side), rounds a
// float64 arena once per element, and ExportFlat reuses the
// destination's capacity.
func TestExportImportFlat(t *testing.T) {
	src32 := []float32{1.5, -2.25, 3e-9}
	wire := ExportFlat(nil, src32)
	back := make([]float32, len(src32))
	tensor.Convert(back, wire)
	for i := range src32 {
		if back[i] != src32[i] {
			t.Fatalf("float32 round trip [%d] = %v, want %v", i, back[i], src32[i])
		}
	}

	src64 := []float64{0.1, 1.0 / 3, -7}
	reused := ExportFlat(make([]float32, 0, 8), src64)
	if cap(reused) != 8 {
		t.Fatalf("ExportFlat reallocated a large enough destination (cap %d)", cap(reused))
	}
	wide := make([]float64, len(src64))
	tensor.Convert(wide, reused)
	for i, v := range src64 {
		if wide[i] != float64(float32(v)) {
			t.Fatalf("float64 round trip [%d] = %v, want one rounding of %v", i, wide[i], v)
		}
	}
}
