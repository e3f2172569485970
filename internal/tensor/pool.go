package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Persistent worker pool for the matrix kernels and for flat-arena
// sweeps (ParallelFor). The pool is started lazily on the first large
// operation and shards contiguous row- or element-blocks across
// GOMAXPROCS goroutines. Small products (in particular the 1×N
// action-path matmuls) never touch the pool: the dispatchers in
// matmul.go fall back to the serial kernels below the size thresholds,
// so there is no goroutine or channel overhead on the latency-critical
// path.
//
// The job plumbing is allocation-free in steady state: job descriptors
// are plain structs sent by value on the channel, the per-call task
// headers are recycled through sync.Pools, and a Ranger is always a
// pointer (interface conversion of a pointer does not allocate), so a
// parallel multiplication or sharded optimizer sweep does not allocate
// (a property the rl.TrainStep zero-allocation tests assert end to end).
// One pool serves every element-type instantiation: jobs carry the work
// as a Ranger, so float32 and float64 kernels (and non-tensor sweeps
// like the fused Adam pass) interleave on the same workers.

// Ranger is a unit of shardable work: RunRange processes the half-open
// block [lo, hi) of some caller-defined index space. Implementations
// must be safe for concurrent invocation on disjoint ranges.
type Ranger interface {
	RunRange(lo, hi int)
}

// mmKind selects the kernel a worker runs for a row range.
type mmKind int8

const (
	mmMul       mmKind = iota // dst = a·b, sharded over rows of a
	mmMulTransA               // dst = aᵀ·b, sharded over columns of a
	mmMulTransB               // dst = a·bᵀ, sharded over rows of a
)

// mmTask is one parallel multiplication: the operands plus a WaitGroup
// the submitting goroutine blocks on. Recycled via the precision-keyed
// task pools.
type mmTask[E Element] struct {
	kind      mmKind
	dst, a, b *Matrix[E]
	wg        sync.WaitGroup
}

// RunRange implements Ranger over rows [lo, hi) of the destination.
func (t *mmTask[E]) RunRange(lo, hi int) {
	switch t.kind {
	case mmMul:
		mulRows(t.dst, t.a, t.b, lo, hi)
	case mmMulTransA:
		mulTransARows(t.dst, t.a, t.b, lo, hi)
	case mmMulTransB:
		mulTransBRows(t.dst, t.a, t.b, lo, hi)
	}
}

// job is one block of a task. Sent by value: channel sends of structs
// do not allocate.
type job struct {
	run    Ranger
	wg     *sync.WaitGroup
	lo, hi int
}

// Task headers are recycled per element type.
var (
	taskPool32 = sync.Pool{New: func() any { return new(mmTask[float32]) }}
	taskPool64 = sync.Pool{New: func() any { return new(mmTask[float64]) }}
)

func getTask[E Element]() *mmTask[E] {
	var z E
	if _, ok := any(z).(float32); ok {
		return taskPool32.Get().(*mmTask[E])
	}
	return taskPool64.Get().(*mmTask[E])
}

func putTask[E Element](t *mmTask[E]) {
	switch v := any(t).(type) {
	case *mmTask[float32]:
		taskPool32.Put(v)
	case *mmTask[float64]:
		taskPool64.Put(v)
	}
}

type workerPool struct {
	workers int
	jobs    chan job
}

// pool holds the current worker pool. Swaps (SetWorkers) take the full
// poolMu lock; dispatchers hold the read lock while submitting jobs, so
// a pool's job channel is never closed while a send is in flight.
var (
	poolMu sync.RWMutex
	pool   atomic.Pointer[workerPool]
)

func getPool() *workerPool {
	if p := pool.Load(); p != nil {
		return p
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if p := pool.Load(); p != nil {
		return p
	}
	p := newWorkerPool(runtime.GOMAXPROCS(0))
	pool.Store(p)
	return p
}

func newWorkerPool(workers int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	p := &workerPool{workers: workers, jobs: make(chan job, 8*workers)}
	// Spawn workers-1 helpers: the submitting goroutine always executes
	// one block itself, so `workers` blocks run concurrently in total.
	for i := 1; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	for j := range p.jobs {
		j.run.RunRange(j.lo, j.hi)
		j.wg.Done()
	}
}

// SetWorkers resizes the kernel worker pool (a test hook; also lets an
// embedding daemon cap tensor parallelism). n == 1 forces every kernel
// serial; n < 1 resets to a GOMAXPROCS-sized pool. Safe to call while
// multiplications are in flight: the swap waits for submitters to
// release the read lock, and the retired pool's workers drain any
// queued row-blocks before exiting.
func SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	old := pool.Load()
	pool.Store(newWorkerPool(n))
	poolMu.Unlock()
	if old != nil {
		// No submitter can hold the old pool past the swap above, so
		// closing is race-free; buffered jobs are still received and
		// completed by the exiting workers.
		close(old.jobs)
	}
}

// minShardRows is the smallest row-block worth shipping to a worker.
const minShardRows = 8

// dispatch runs the kernel for rows [0, n) of dst, sharding across the
// pool when the caller judged the product large enough. The final block
// runs on the calling goroutine.
func dispatch[E Element](kind mmKind, dst, a, b *Matrix[E], n int) {
	getPool() // bootstrap on first use (takes the write lock if needed)
	// Hold the read lock from pool selection through the last send, so
	// SetWorkers can neither close this pool's job channel mid-
	// submission nor shrink the worker count after sharding is decided.
	poolMu.RLock()
	p := pool.Load()
	shards := p.workers
	if max := n / minShardRows; shards > max {
		shards = max
	}
	if shards <= 1 {
		poolMu.RUnlock()
		t := mmTask[E]{kind: kind, dst: dst, a: a, b: b}
		t.RunRange(0, n)
		return
	}
	t := getTask[E]()
	t.kind, t.dst, t.a, t.b = kind, dst, a, b
	// Even-sized blocks keep the kernels' row-pairing aligned with a
	// serial run, so sharding never changes results bit-for-bit.
	chunk := (n + shards - 1) / shards
	chunk = (chunk + 1) &^ 1
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		t.wg.Add(1)
		p.jobs <- job{run: t, wg: &t.wg, lo: lo, hi: lo + chunk}
	}
	poolMu.RUnlock()
	t.RunRange(lo, n) // caller chews the last block
	t.wg.Wait()
	t.dst, t.a, t.b = nil, nil, nil
	putTask(t)
}

// parHeader carries the completion WaitGroup for one ParallelFor call;
// recycled so sharded sweeps stay allocation-free.
type parHeader struct{ wg sync.WaitGroup }

var parPool = sync.Pool{New: func() any { return new(parHeader) }}

// ParallelFor shards the half-open index range [0, n) across the kernel
// worker pool, invoking r.RunRange once per block; the final block runs
// on the calling goroutine and the call returns only when every block
// has completed. Blocks are at least minChunk wide — when n/minChunk
// leaves a single shard (or the pool is one worker), the whole range
// runs serially on the caller with no synchronization at all.
//
// Each index lands in exactly one block, so element-independent sweeps
// (the fused Adam/clip/soft-update pass) produce bit-identical results
// at any worker count. r should be a pointer persisted across calls
// (interface conversion of a pointer does not allocate), keeping the
// steady state allocation-free.
func ParallelFor(n, minChunk int, r Ranger) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	getPool()
	poolMu.RLock()
	p := pool.Load()
	shards := p.workers
	if max := n / minChunk; shards > max {
		shards = max
	}
	if shards <= 1 {
		poolMu.RUnlock()
		r.RunRange(0, n)
		return
	}
	h := parPool.Get().(*parHeader)
	chunk := (n + shards - 1) / shards
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		h.wg.Add(1)
		p.jobs <- job{run: r, wg: &h.wg, lo: lo, hi: lo + chunk}
	}
	poolMu.RUnlock()
	r.RunRange(lo, n) // caller chews the last block
	h.wg.Wait()
	parPool.Put(h)
}
