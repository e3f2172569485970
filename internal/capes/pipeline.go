package capes

import (
	"math/rand"
	"sync"

	"capes/internal/replay"
	"capes/internal/rl"
)

// The two-stage control-loop pipeline (Config.Pipeline). Lockstep mode
// runs sample → act → assemble minibatch → train inside one tick, so
// tick latency is bounded by the sum of the action and training paths.
// Pipelined mode moves the two expensive stages onto persistent worker
// goroutines:
//
//   - the trainer runs TrainStep(batch[k]) while the engine keeps
//     ticking; the action path forwards through the published parameter
//     mirror (rl.Agent's *Published methods), never the arenas FusedStep
//     is mutating;
//   - the prefetcher assembles batch[k+1] from the ring into the other
//     half of a double buffer while batch[k] trains.
//
// Determinism is preserved by a join-before-write discipline: the
// engine is the ring's only writer, and it joins any in-flight
// assembly at the top of every Tick — before PutFrame/PutAction — so
// assembly always reads the ring exactly as frozen at its launch tick.
// The in-flight train step is joined at the next train-due tick (or on
// quiesce), and the fresh parameters are published to the inference
// mirror at that join — a deterministic point in the tick schedule —
// so the whole pipelined trajectory is a pure function of the seed,
// not of worker timing. It intentionally differs from the lockstep
// trajectory (batches are assembled one schedule slot earlier, from
// their own rng stream); each mode is its own golden.
//
// Everything on this path is allocation-free in steady state: the
// workers are persistent (no per-step goroutines), the channels carry
// pointer-or-value payloads into reusable buffers, and parameter
// publication is a flat copy into a preallocated mirror.

// prefetchSeedSalt derives the prefetcher's rng stream from the session
// seed: pipelined batch sampling must not share the action path's
// stream, so the two stages consume independent deterministic
// sequences. ("prefetch" minus its first byte, as int64.)
const prefetchSeedSalt = 0x7072656665746368

type prefetchReq struct {
	db     *replay.DB
	b      *replay.Batch[EnginePrecision]
	n      int
	lo, hi int64 // pinned sampling bounds, captured at launch
}

type trainReq struct {
	agent *rl.Agent[EnginePrecision]
	b     *replay.Batch[EnginePrecision]
}

// pipeline is the pipelined mode's trainer: the engine-side state of
// the two worker stages. All fields are owned by the engine under e.mu
// except the channels; the workers' side effects are observed only
// through joins, which give the happens-before edges the harvested
// reads rely on.
type pipeline struct {
	e   *Engine
	rng *rand.Rand // prefetch sampling stream

	// Double-buffered minibatches: the trainer consumes batches[cur^1]
	// (after the handoff flips cur) while the prefetcher fills the other.
	batches [2]replay.Batch[EnginePrecision]
	cur     int // buffer the next train step consumes

	prefetchReq      chan prefetchReq
	prefetchDone     chan error
	prefetchInFlight bool
	prefetchReady    bool // batches[cur] holds an unconsumed successful prefetch

	trainReq      chan trainReq
	trainDone     chan error
	trainInFlight bool
	trainTick     int64 // schedule slot of the in-flight train step

	// Engine-side mirrors of the trainer-owned agent counters, harvested
	// at each join; telemetry and Stats read these instead of the agent,
	// so they never touch fields TrainStep may be mutating.
	steps     int64
	lossEWMA  float64
	tdErrEWMA float64

	prefetched int64 // train ticks served from a completed prefetch
	misses     int64 // train ticks assembled in line (cold start or failed prefetch)

	closed bool
	wg     sync.WaitGroup
}

// newPipeline allocates the pipeline and starts its two workers; called
// once from NewEngine when cfg.Pipeline is set.
func newPipeline(e *Engine) *pipeline {
	p := &pipeline{
		e:            e,
		rng:          rand.New(rand.NewSource(e.cfg.Seed ^ prefetchSeedSalt)),
		prefetchReq:  make(chan prefetchReq, 1),
		prefetchDone: make(chan error, 1),
		trainReq:     make(chan trainReq, 1),
		trainDone:    make(chan error, 1),
	}
	e.agent.EnablePublishing()
	p.wg.Add(2)
	go p.prefetchWorker(e.rewardFn)
	go p.trainWorker()
	return p
}

// prefetchWorker assembles minibatches from pinned ring bounds. The
// request carries the DB so a session restore (which may replace e.db)
// never shares a field with a running worker.
func (p *pipeline) prefetchWorker(rf replay.RewardFunc) {
	defer p.wg.Done()
	for req := range p.prefetchReq {
		p.prefetchDone <- replay.ConstructMinibatchPinnedInto(
			req.db, p.rng, req.n, rf, req.b, req.lo, req.hi)
	}
}

// trainWorker runs train steps. Parameter publication happens at the
// join, not here, so the action path's view of the network changes only
// at deterministic schedule points.
func (p *pipeline) trainWorker() {
	defer p.wg.Done()
	for req := range p.trainReq {
		_, err := req.agent.TrainStep(req.b)
		p.trainDone <- err
	}
}

// beginTick waits out any in-flight batch assembly before the tick
// writes to the ring — the discipline that keeps assembly reads frozen
// at their launch tick.
func (p *pipeline) beginTick() {
	if p.prefetchInFlight {
		err := <-p.prefetchDone
		p.prefetchInFlight = false
		p.prefetchReady = err == nil
	}
}

// joinTrain waits out the in-flight train step, harvests the
// trainer-owned counters into the engine-side caches, and publishes the
// stepped parameters to the inference mirror.
func (p *pipeline) joinTrain() {
	if !p.trainInFlight {
		return
	}
	e := p.e
	err := <-p.trainDone
	p.trainInFlight = false
	p.steps = e.agent.Steps()
	p.lossEWMA = e.agent.SmoothedLoss()
	p.tdErrEWMA = e.agent.TDErrorEMA()
	// The trainer is idle between the join and the next launch — the
	// only pipelined window where the divergence probe may touch the
	// online arenas.
	e.stepDoneLocked(err, p.trainTick)
	if err == nil {
		e.agent.PublishParams()
	}
}

// step is the train branch of a pipelined Tick. It joins the previous
// train step, hands the prefetched batch to the trainer (assembling in
// line on a cold start or failed prefetch, exactly as lockstep mode
// would), and launches the prefetch for the next train-due tick into
// the freed buffer.
func (p *pipeline) step(now int64) {
	e := p.e
	h := &e.cfg.Hyper
	p.joinTrain()
	b := &p.batches[p.cur]
	ok := p.prefetchReady
	p.prefetchReady = false
	if ok {
		p.prefetched++
	} else {
		p.misses++
		lo, hi, bounded := e.db.SampleBounds()
		ok = bounded && replay.ConstructMinibatchPinnedInto(e.db, p.rng, h.MinibatchSize, e.rewardFn, b, lo, hi) == nil
	}
	if ok {
		// The previous step is joined, so the trainer is idle and the
		// arenas are the engine's to poison.
		e.maybePoisonLocked()
		p.trainTick = now
		p.trainInFlight = true
		p.trainReq <- trainReq{agent: e.agent, b: b}
		p.cur ^= 1
	}
	// Prefetch the next slot's batch into the buffer the trainer is not
	// holding. (If no train launched, cur did not flip and the buffer is
	// simply reused.) A DB too sparse to bound a draw just skips; the
	// next train tick then assembles in line.
	if lo, hi, bounded := e.db.SampleBounds(); bounded {
		p.prefetchInFlight = true
		p.prefetchReq <- prefetchReq{db: e.db, b: &p.batches[p.cur], n: h.MinibatchSize, lo: lo, hi: hi}
	}
}

func (p *pipeline) counters() (int64, float64, float64) {
	return p.steps, p.lossEWMA, p.tdErrEWMA
}

func (p *pipeline) fillStats(s *Stats) {
	s.Pipelined = true
	s.PrefetchedBatches = p.prefetched
	s.PrefetchMisses = p.misses
}

// quiesce joins both stages.
func (p *pipeline) quiesce() {
	p.beginTick()
	p.joinTrain()
}

// realign rebinds the pipeline to a restored session's agent and
// discards any batch prefetched from the replaced DB. Publishing must
// be live before the trainer can ever touch the new agent, or the
// action path would read the online arenas.
func (p *pipeline) realign() {
	a := p.e.agent
	a.EnablePublishing()
	p.prefetchReady = false
	p.steps = a.Steps()
	p.lossEWMA = a.SmoothedLoss()
	p.tdErrEWMA = a.TDErrorEMA()
}

// close quiesces and shuts the workers down.
func (p *pipeline) close() {
	if p.closed {
		return
	}
	p.quiesce()
	p.closed = true
	close(p.prefetchReq)
	close(p.trainReq)
	p.wg.Wait()
}
