package main

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by tens of
// percent over minutes as other tenants come and go, and that drift, not
// the program, set most of the run-to-run spread of the raw figures. So
// every run also times a fixed reference chunk of work — the benchmark's
// own code on the standard library, never the repo's — at quiet points
// between its measurement windows, and reports each host-bound figure
// scaled towards reference speed by hostRef.scale. A slower host slows
// the chunk and the program alike and the scaling takes much of that
// out; a slower program leaves the chunk alone and shows in full.
//
// The chunk mixes what a control-loop tick does: encode a float32 vector
// to bytes, flate it at BestSpeed and inflate it back (the wire codec),
// and a small float32 matrix product (the network). It allocates next to
// nothing (the inflater's reset, two small objects per goroutine), so
// the program's garbage collection does not bill it for the program's
// allocations.
const (
	refChunksPerPause = 8
	refLen            = 16384 // float32s the codec part encodes
	refDim            = 64    // the matrix product is refDim³
)

// refChunkUs is a chunk's time at reference speed, by the goroutines it
// runs on: the mean of the fastest fifth of a run's chunk times on the
// 2-vCPU Xeon (avx2 tier) the benchmark was sized on, at a quiet hour.
var refChunkUs = map[int]float64{1: 1000, 2: 1100}

// hostRef times the reference chunk on as many goroutines as the
// workload keeps busy at once: one for an open loop, whose tick work runs
// mostly on one core at a time, and two for cluster-train, whose leader
// and follower compute side by side and wait for each other, so a
// contended core slows every round. A chunk's time is the wall time of
// the whole group.
type hostRef struct {
	work  []*refWork
	refUs float64   // refChunkUs for this many goroutines
	times []float64 // µs per chunk
}

// refWork is one goroutine's reference work and buffers.
type refWork struct {
	data    []float32
	raw     []byte
	plain   []byte
	packed  bytes.Buffer
	zw      *flate.Writer
	zr      io.ReadCloser
	src     bytes.Reader
	a, b, c []float32
}

func newHostRef(par int) *hostRef {
	h := &hostRef{refUs: refChunkUs[par]}
	for range par {
		h.work = append(h.work, newRefWork())
	}
	return h
}

func newRefWork() *refWork {
	w := &refWork{
		data: make([]float32, refLen),
		raw:  make([]byte, 4*refLen), plain: make([]byte, 4*refLen),
		a: make([]float32, refDim*refDim), b: make([]float32, refDim*refDim), c: make([]float32, refDim*refDim),
	}
	// A slowly varying signal with noise in its low bits compresses
	// about as well as indicator and gradient vectors do.
	x := uint32(1)
	for i := range w.data {
		x = x*1664525 + 1013904223
		w.data[i] = float32(math.Sin(float64(i)/64)) + float32(x>>20)*1e-6
	}
	for i := range w.a {
		w.a[i], w.b[i] = w.data[i], w.data[len(w.data)-1-i]
	}
	w.packed.Grow(5 * refLen)
	w.zw, _ = flate.NewWriter(nil, flate.BestSpeed)
	w.zr = flate.NewReader(&w.src)
	w.run() // first use grows the flate state; not timed
	return w
}

// run is one goroutine's share of a chunk.
func (w *refWork) run() {
	for i, v := range w.data {
		binary.LittleEndian.PutUint32(w.raw[4*i:], math.Float32bits(v))
	}
	w.packed.Reset()
	w.zw.Reset(&w.packed)
	w.zw.Write(w.raw)
	w.zw.Close()
	w.src.Reset(w.packed.Bytes())
	w.zr.(flate.Resetter).Reset(&w.src, nil)
	io.ReadFull(w.zr, w.plain)
	for i := range w.c {
		w.c[i] = 0
	}
	for i := 0; i < refDim; i++ {
		ci := w.c[i*refDim : (i+1)*refDim]
		for k := 0; k < refDim; k++ {
			aik := w.a[i*refDim+k] + float32(w.plain[4*(i*refDim+k)])*1e-3
			for j, bkj := range w.b[k*refDim : (k+1)*refDim] {
				ci[j] += aik * bkj
			}
		}
	}
}

// chunk runs one chunk: every goroutine's share, side by side.
func (h *hostRef) chunk() {
	if len(h.work) == 1 {
		h.work[0].run()
		return
	}
	var wg sync.WaitGroup
	for _, w := range h.work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
}

// pause times refChunksPerPause chunks. Call it only where the loop
// under test is idle.
func (h *hostRef) pause() {
	h.chunk()
	for i := 0; i < refChunksPerPause; i++ {
		t0 := time.Now()
		h.chunk()
		h.times = append(h.times, float64(time.Since(t0).Nanoseconds())/1e3)
	}
}

// chunkUs is the run's chunk time: the mean of the fastest fifth of its
// chunks. Chunk times are bimodal on a shared host — about 1.7× apart,
// as the core's sibling is busy or not — and chunks caught by
// preemption or by the program's background work run slower still;
// the fast end is what the host's speed moves, and a mean over a fifth
// of the chunks slides smoothly rather than jumping between the modes.
func (h *hostRef) chunkUs() float64 {
	ts := append([]float64(nil), h.times...)
	sort.Float64s(ts)
	ts = ts[:max(1, len(ts)/5)]
	var sum float64
	for _, t := range ts {
		sum += t
	}
	return sum / float64(len(ts))
}

// scale is the factor a run's host-bound figures are scaled by: times
// are divided by it, rates multiplied. It is the square root of the
// run's slowdown against reference speed, a compromise between the
// figures it scales. When other tenants load the host, wall-clock
// latency moves more than the chunk (it also waits for a core) and CPU
// per tick moves less (time a core spends on another tenant is not
// billed), and at a quiet hour the chunk's own run-to-run noise is as
// large as the figures'. Scaling by the full slowdown overcorrected the
// CPU figures and added that noise; the square root took out part of
// each drift and widened quiet-hour spreads far less.
func (h *hostRef) scale() float64 {
	return math.Sqrt(h.chunkUs() / h.refUs)
}

// hostNote is the line that states a run's host reference and its
// set-up time as measured.
func hostNote(h *hostRef, setup float64) string {
	return fmt.Sprintf("host: ref_chunk_us=%.1f chunks=%d scale=%.4f setup_s_measured=%.6f",
		h.chunkUs(), len(h.times), h.scale(), setup)
}
