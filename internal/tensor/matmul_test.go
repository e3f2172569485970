package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tolEquiv is the elementwise tolerance for blocked-vs-naive comparisons:
// the optimized kernels reassociate the k-summation (4-way unrolling and
// tiling), so results differ from the reference by a few ULPs scaled by
// the accumulation length.
const tolEquiv = 1e-9

// raggedShapes hits every remainder path: 1×N and N×1 products, sizes
// straddling the unroll width (4) and the tile edges (blockK, blockJ),
// and sizes large enough to cross the parallel threshold.
var raggedShapes = [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{1, 640, 5}, // the action path: one observation → Q-values
	{5, 1, 9},
	{3, 4, 5},
	{4, 4, 4},
	{7, 9, 11},
	{blockK - 1, blockK + 1, blockJ - 1},
	{blockK + 3, blockK, blockJ + 5},
	{32, 640, 640}, // the train-step forward shape (above parallelFlops)
	{130, 67, 259},
}

// TestMulIntoMatchesNaive is the golden-equivalence test for the blocked
// kernel against the original naive implementation.
func TestMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range raggedShapes {
		r, k, c := s[0], s[1], s[2]
		a := randomMatrix[float64](rng, r, k)
		b := randomMatrix[float64](rng, k, c)
		got, want := New[float64](r, c), New[float64](r, c)
		MulInto(got, a, b)
		mulNaiveInto(want, a, b)
		if !ApproxEqual(got, want, tolEquiv) {
			t.Fatalf("MulInto %dx%dx%d deviates from naive reference", r, k, c)
		}
	}
}

func TestMulTransAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, s := range raggedShapes {
		// a is k×r so aᵀ·b has shape r×c with shared dimension k.
		r, k, c := s[0], s[1], s[2]
		a := randomMatrix[float64](rng, k, r)
		b := randomMatrix[float64](rng, k, c)
		got, want := New[float64](r, c), New[float64](r, c)
		MulTransAInto(got, a, b)
		mulTransANaiveInto(want, a, b)
		if !ApproxEqual(got, want, tolEquiv) {
			t.Fatalf("MulTransAInto %dx%dx%d deviates from naive reference", r, k, c)
		}
	}
}

func TestMulTransBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range raggedShapes {
		r, k, c := s[0], s[1], s[2]
		a := randomMatrix[float64](rng, r, k)
		b := randomMatrix[float64](rng, c, k)
		got, want := New[float64](r, c), New[float64](r, c)
		MulTransBInto(got, a, b)
		mulTransBNaiveInto(want, a, b)
		if !ApproxEqual(got, want, tolEquiv) {
			t.Fatalf("MulTransBInto %dx%dx%d deviates from naive reference", r, k, c)
		}
	}
}

// TestMulIntoMatchesNaiveQuick drives random shapes (including sparse
// inputs, which exercise the zero-skip paths) through all three kernels.
func TestMulIntoMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := randomMatrix[float64](rng, r, k)
		b := randomMatrix[float64](rng, k, c)
		// Sprinkle zeros to hit the zero-skip branches.
		for i := range a.Data {
			if rng.Intn(4) == 0 {
				a.Data[i] = 0
			}
		}
		got, want := New[float64](r, c), New[float64](r, c)
		MulInto(got, a, b)
		mulNaiveInto(want, a, b)
		if !ApproxEqual(got, want, tolEquiv) {
			return false
		}
		gotTA, wantTA := New[float64](r, c), New[float64](r, c)
		MulTransAInto(gotTA, transposed(a), b)
		mulTransANaiveInto(wantTA, transposed(a), b)
		if !ApproxEqual(gotTA, wantTA, tolEquiv) {
			return false
		}
		gotTB, wantTB := New[float64](r, c), New[float64](r, c)
		MulTransBInto(gotTB, a, transposed(b))
		mulTransBNaiveInto(wantTB, a, transposed(b))
		return ApproxEqual(gotTB, wantTB, tolEquiv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParallelKernelsMatchSerial forces a multi-worker pool — regardless
// of GOMAXPROCS — and checks the sharded kernels against serial runs.
// Under `go test -race` this doubles as the data-race check on the
// worker pool.
func TestParallelKernelsMatchSerial(t *testing.T) {
	defer SetWorkers(0) // restore a GOMAXPROCS-sized pool via clamp path
	rng := rand.New(rand.NewSource(14))
	// Big enough to clear parallelFlops and minShardRows for all kernels.
	shapes := [][3]int{{64, 64, 64}, {96, 130, 70}, {32, 640, 640}, {640, 32, 640}}
	for _, s := range shapes {
		r, k, c := s[0], s[1], s[2]
		a := randomMatrix[float64](rng, r, k)
		b := randomMatrix[float64](rng, k, c)
		at := transposed(a)
		bt := transposed(b)

		SetWorkers(1)
		serialMul, serialTA, serialTB := New[float64](r, c), New[float64](r, c), New[float64](r, c)
		MulInto(serialMul, a, b)
		MulTransAInto(serialTA, at, b)
		MulTransBInto(serialTB, a, bt)

		SetWorkers(4)
		parMul, parTA, parTB := New[float64](r, c), New[float64](r, c), New[float64](r, c)
		MulInto(parMul, a, b)
		MulTransAInto(parTA, at, b)
		MulTransBInto(parTB, a, bt)

		// Identical shard-local arithmetic → bit-for-bit equality.
		if !Equal(parMul, serialMul) {
			t.Fatalf("parallel MulInto %v deviates from serial", s)
		}
		if !Equal(parTA, serialTA) {
			t.Fatalf("parallel MulTransAInto %v deviates from serial", s)
		}
		if !Equal(parTB, serialTB) {
			t.Fatalf("parallel MulTransBInto %v deviates from serial", s)
		}
	}
}

// TestParallelKernelsConcurrentCallers hammers the shared pool from many
// goroutines at once (the capesd scenario: several sessions training in
// one process). Run with -race to verify the job plumbing.
func TestParallelKernelsConcurrentCallers(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const callers = 6
	rng := rand.New(rand.NewSource(15))
	a := randomMatrix[float64](rng, 64, 96)
	b := randomMatrix[float64](rng, 96, 80)
	want := New[float64](64, 80)
	mulNaiveInto(want, a, b)
	done := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			dst := New[float64](64, 80)
			for i := 0; i < 50; i++ {
				MulInto(dst, a, b)
				if !ApproxEqual(dst, want, tolEquiv) {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetWorkersDuringKernels resizes the pool while multiplications
// are in flight on other goroutines: submissions hold the pool read
// lock, so a swap must never close a channel mid-send (which would
// panic) or strand a queued row-block (which would deadlock the
// caller's WaitGroup).
func TestSetWorkersDuringKernels(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(16))
	a := randomMatrix[float64](rng, 64, 96)
	b := randomMatrix[float64](rng, 96, 80)
	want := New[float64](64, 80)
	mulNaiveInto(want, a, b)
	stop := make(chan struct{})
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() {
			dst := New[float64](64, 80)
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				MulInto(dst, a, b)
				if !ApproxEqual(dst, want, tolEquiv) {
					done <- errMismatch
					return
				}
			}
		}()
	}
	for _, w := range []int{1, 4, 2, 8, 1, 3} {
		SetWorkers(w)
	}
	close(stop)
	for g := 0; g < 2; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent MulInto deviates from reference")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestMaxPerRowInto(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 9, 3, -5, -2, -7})
	vals := make([]float64, 2)
	idx := make([]int, 2)
	m.MaxPerRowInto(vals, idx)
	if vals[0] != 9 || idx[0] != 1 || vals[1] != -2 || idx[1] != 1 {
		t.Fatalf("MaxPerRowInto = %v @ %v", vals, idx)
	}
	if math.IsNaN(vals[0]) {
		t.Fatal("unreachable")
	}
}

// transposed returns mᵀ in a fresh matrix: the explicit-transpose
// reference the transposed-operand kernels are checked against.
func transposed[E Element](m *Matrix[E]) *Matrix[E] {
	t := New[E](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// mul returns a·b in a fresh matrix.
func mul[E Element](a, b *Matrix[E]) *Matrix[E] {
	dst := New[E](a.Rows, b.Cols)
	MulInto(dst, a, b)
	return dst
}

// randomMatrix returns an r×c matrix with uniform values in [-1, 1).
func randomMatrix[E Element](rng *rand.Rand, r, c int) *Matrix[E] {
	m := New[E](r, c)
	for i := range m.Data {
		m.Data[i] = E(rng.Float64()*2 - 1)
	}
	return m
}

// benchmark shapes: the CAPES train step multiplies batch×width by
// width×width (hidden layers) and width×actions (head).
func BenchmarkMulInto(b *testing.B) {
	shapes := [][3]int{{64, 64, 64}, {256, 256, 256}, {32, 640, 640}}
	// The 32×640·640×640 entry is the minibatch train-forward shape
	// (obsWidth 64, stack 10).
	for _, s := range shapes {
		s := s
		b.Run(sizeName(s[0], s[1], s[2])+"/f64", func(b *testing.B) {
			benchMulInto[float64](b, s[0], s[1], s[2])
		})
		b.Run(sizeName(s[0], s[1], s[2])+"/f32", func(b *testing.B) {
			benchMulInto[float32](b, s[0], s[1], s[2])
		})
	}
}

func sizeName(r, k, c int) string {
	digits := func(n int) string {
		if n == 0 {
			return "0"
		}
		var buf [8]byte
		i := len(buf)
		for n > 0 {
			i--
			buf[i] = byte('0' + n%10)
			n /= 10
		}
		return string(buf[i:])
	}
	return digits(r) + "x" + digits(k) + "x" + digits(c)
}

func benchMulInto[E Element](b *testing.B, r, k, c int) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix[E](rng, r, k)
	m := randomMatrix[E](rng, k, c)
	dst := New[E](r, c)
	b.ReportAllocs()
	b.SetBytes(int64(ElemSize[E]() * r * k * c))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, m)
	}
}

func BenchmarkMulTransAInto(b *testing.B) {
	// GradW shape: (32×640)ᵀ · 32×640 → 640×640.
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix[float64](rng, 32, 640)
	m := randomMatrix[float64](rng, 32, 640)
	dst := New[float64](640, 640)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransAInto(dst, a, m)
	}
}

func BenchmarkMulTransBInto(b *testing.B) {
	// gradIn shape: 32×640 · (640×640)ᵀ. The f32 variant exercises the
	// paired sdot2 dot kernels.
	b.Run("f64", func(b *testing.B) { benchMulTransB[float64](b) })
	b.Run("f32", func(b *testing.B) { benchMulTransB[float32](b) })
}

func benchMulTransB[E Element](b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix[E](rng, 32, 640)
	m := randomMatrix[E](rng, 640, 640)
	dst := New[E](32, 640)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransBInto(dst, a, m)
	}
}
