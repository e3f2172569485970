package nn

import (
	"math"

	"capes/internal/tensor"
)

// Adam implements the Adam stochastic-gradient optimizer (Kingma & Ba,
// 2015), the optimizer the paper selects for training the Q-network with
// learning rate 0.0001 (Table 1). The moments are kept at the model's
// element precision E; the bias-correction factors are computed in
// float64 every step and rounded once.
type Adam[E tensor.Element] struct {
	LR      float64 // learning rate (Table 1: 0.0001)
	Beta1   float64 // first-moment decay, default 0.9
	Beta2   float64 // second-moment decay, default 0.999
	Epsilon float64 // numerical-stability constant, default 1e-8

	step int
	m    []*tensor.Matrix[E] // first-moment estimates, aligned with params
	v    []*tensor.Matrix[E] // second-moment estimates

	fm []E // flat first moments (StepFlat/FusedStep), aligned with the arena
	fv []E // flat second moments

	task fusedTask[E] // persistent sweep descriptor (pool sharding)
}

// NewAdam returns an Adam optimizer with the standard β/ε defaults. The
// type parameter selects the precision of the parameters it will step.
func NewAdam[E tensor.Element](lr float64) *Adam[E] {
	return &Adam[E]{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update: params[i] -= lr · m̂/(√v̂+ε) using the
// gradients in grads. Moment buffers are lazily allocated to match the
// parameter shapes on the first call.
func (a *Adam[E]) Step(params, grads []*tensor.Matrix[E]) {
	if len(params) != len(grads) {
		panic("nn: Adam params/grads length mismatch")
	}
	if a.m == nil {
		a.m = make([]*tensor.Matrix[E], len(params))
		a.v = make([]*tensor.Matrix[E], len(params))
		for i, p := range params {
			a.m[i] = tensor.New[E](p.Rows, p.Cols)
			a.v[i] = tensor.New[E](p.Rows, p.Cols)
		}
	}
	a.step++
	// Bias-corrected learning rate: lr·√(1−β₂ᵗ)/(1−β₁ᵗ).
	t := float64(a.step)
	lrT := E(a.LR * math.Sqrt(1-math.Pow(a.Beta2, t)) / (1 - math.Pow(a.Beta1, t)))
	b1, b2, eps := E(a.Beta1), E(a.Beta2), E(a.Epsilon)
	for i, p := range params {
		g := grads[i]
		mi, vi := a.m[i], a.v[i]
		for j, gj := range g.Data {
			mi.Data[j] = b1*mi.Data[j] + (1-b1)*gj
			vi.Data[j] = b2*vi.Data[j] + (1-b2)*gj*gj
			p.Data[j] -= lrT * mi.Data[j] / (tensor.Sqrt(vi.Data[j]) + eps)
		}
	}
}

// StepFlat applies one Adam update over a flat parameter arena (see
// MLP.FlatParams/FlatGrads): the moment updates and the parameter step
// are fused into a single pass over contiguous memory, with the moments
// themselves stored flat. Use either Step or StepFlat/FusedStep on one
// optimizer, not both — the two maintain separate moment buffers (the
// shared step counter would skew bias correction if they were mixed).
func (a *Adam[E]) StepFlat(params, grads []E) {
	a.FusedStep(params, grads, 1, nil, 0)
}

// Fused-sweep target modes.
const (
	fusedNoTarget = iota // plain Adam step
	fusedSoft            // + soft update: target = target(1−α) + p·α
	fusedHard            // + hard update: target = p (double-buffer fill)
)

// fusedTask is the sharded form of the fused Adam/clip/update sweep: a
// persistent descriptor handed to tensor.ParallelFor, so a multi-worker
// sweep allocates nothing. Every element of the arena is touched by
// exactly one shard and the update is element-independent, so results
// are bit-identical at any worker count.
type fusedTask[E tensor.Element] struct {
	params, grads, fm, fv, target []E
	lrT, b1, b2, eps, scale, al   E
	mode                          int8
}

// RunRange implements tensor.Ranger over [lo, hi) of the flat arena.
// Concrete float32 arenas (the deployed engine precision) route to the
// SIMD-tier sweeps in tensor (SQRTPS/DIVPS are IEEE-exact, so every
// tier matches the scalar loops below bit for bit — the sharded-
// determinism contract is unchanged); float64 runs the generic scalar
// loops.
func (t *fusedTask[E]) RunRange(lo, hi int) {
	if p32, ok := any(t.params).([]float32); ok {
		t.runRange32(p32, lo, hi)
		return
	}
	params, grads, fm, fv := t.params, t.grads, t.fm, t.fv
	lrT, b1, b2, eps, scale := t.lrT, t.b1, t.b2, t.eps, t.scale
	switch t.mode {
	case fusedSoft:
		target, alpha := t.target, t.al
		for j := lo; j < hi; j++ {
			gj := grads[j] * scale
			mj := b1*fm[j] + (1-b1)*gj
			vj := b2*fv[j] + (1-b2)*gj*gj
			fm[j], fv[j] = mj, vj
			p := params[j] - lrT*mj/(tensor.Sqrt(vj)+eps)
			params[j] = p
			target[j] = target[j]*(1-alpha) + p*alpha
		}
	case fusedHard:
		target := t.target
		for j := lo; j < hi; j++ {
			gj := grads[j] * scale
			mj := b1*fm[j] + (1-b1)*gj
			vj := b2*fv[j] + (1-b2)*gj*gj
			fm[j], fv[j] = mj, vj
			p := params[j] - lrT*mj/(tensor.Sqrt(vj)+eps)
			params[j] = p
			target[j] = p
		}
	default:
		for j := lo; j < hi; j++ {
			gj := grads[j] * scale
			mj := b1*fm[j] + (1-b1)*gj
			vj := b2*fv[j] + (1-b2)*gj*gj
			fm[j], fv[j] = mj, vj
			params[j] -= lrT * mj / (tensor.Sqrt(vj) + eps)
		}
	}
}

// runRange32 is the concrete-float32 shard body: one call into the
// tier-dispatched fused sweep per mode. The E→float32 conversions are
// value-preserving (E is float32 here) and the 1−x complements round
// exactly as the generic loops' inline (1-b1)/(1-b2)/(1-alpha).
func (t *fusedTask[E]) runRange32(p32 []float32, lo, hi int) {
	g32 := any(t.grads).([]float32)
	fm32 := any(t.fm).([]float32)
	fv32 := any(t.fv).([]float32)
	lrT, b1, b2 := float32(t.lrT), float32(t.b1), float32(t.b2)
	eps, scale := float32(t.eps), float32(t.scale)
	switch t.mode {
	case fusedSoft:
		tg := any(t.target).([]float32)
		al := float32(t.al)
		tensor.AdamSweepSoft32(p32[lo:hi], g32[lo:hi], fm32[lo:hi], fv32[lo:hi], tg[lo:hi],
			lrT, b1, 1-b1, b2, 1-b2, eps, scale, al, 1-al)
	case fusedHard:
		tg := any(t.target).([]float32)
		tensor.AdamSweepHard32(p32[lo:hi], g32[lo:hi], fm32[lo:hi], fv32[lo:hi], tg[lo:hi],
			lrT, b1, 1-b1, b2, 1-b2, eps, scale)
	default:
		tensor.AdamSweep32(p32[lo:hi], g32[lo:hi], fm32[lo:hi], fv32[lo:hi],
			lrT, b1, 1-b1, b2, 1-b2, eps, scale)
	}
}

// fusedShardChunk is the smallest arena block worth shipping to a pool
// worker: below it the sweep is cheaper than the synchronization. It is
// a var so the sharded/serial equivalence test can force sharding on
// small arenas.
var fusedShardChunk = 1 << 14

// FusedStep is StepFlat with the rest of the per-step parameter traffic
// folded into the same sweep: each gradient is scaled by gradScale as it
// is read (global-norm clipping without a separate scale pass over the
// arena — the grads slice itself is left unscaled), and when target is
// non-nil the target network is updated with the freshly stepped
// parameter in place: the soft update θ⁻ = θ⁻(1−α) + θα for α < 1, or a
// straight copy θ⁻ = θ for α == 1 (the double-buffered hard update — the
// "copy" costs nothing extra because the sweep already holds θ in a
// register). One pass touches all five streams (params, grads, both
// moments, target) instead of three separate kernels re-reading them.
//
// Arenas at least two shard-chunks long are sharded across the tensor
// worker pool (tensor.ParallelFor); the update is element-independent,
// so sharding never changes results. The sweep allocates nothing in
// steady state at any worker count.
func (a *Adam[E]) FusedStep(params, grads []E, gradScale float64, target []E, alpha float64) {
	if len(params) != len(grads) {
		panic("nn: Adam params/grads length mismatch")
	}
	if target != nil && len(target) != len(params) {
		panic("nn: Adam target length mismatch")
	}
	if a.fm == nil {
		a.fm = make([]E, len(params))
		a.fv = make([]E, len(params))
	} else if len(a.fm) != len(params) {
		panic("nn: Adam flat moment size mismatch")
	}
	a.step++
	t := float64(a.step)
	lrT := a.LR * math.Sqrt(1-math.Pow(a.Beta2, t)) / (1 - math.Pow(a.Beta1, t))

	task := &a.task
	task.params, task.grads, task.fm, task.fv, task.target = params, grads, a.fm, a.fv, target
	task.lrT, task.b1, task.b2, task.eps = E(lrT), E(a.Beta1), E(a.Beta2), E(a.Epsilon)
	task.scale, task.al = E(gradScale), E(alpha)
	switch {
	case target == nil:
		task.mode = fusedNoTarget
	case alpha == 1:
		task.mode = fusedHard
	default:
		task.mode = fusedSoft
	}
	tensor.ParallelFor(len(params), fusedShardChunk, task)
	task.params, task.grads, task.fm, task.fv, task.target = nil, nil, nil, nil, nil
}

// StepCount returns the number of updates applied so far.
func (a *Adam[E]) StepCount() int { return a.step }

// Reset clears the moment estimates and step counter.
func (a *Adam[E]) Reset() {
	a.step = 0
	a.m, a.v = nil, nil
	a.fm, a.fv = nil, nil
}
