package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"capes/internal/capes"
	"capes/internal/nn"
	"capes/internal/replay"
	"capes/internal/wire"
)

// probeSink keeps probed results alive so the calls are not optimized out.
var probeSink int

// probeBudget bounds each post-run probe's repetitions.
const probeBudget = 300 * time.Millisecond

// engineProbes times the engine's layers after the run, on the run's own
// replay DB and agent at the workload's exact shape: minibatch assembly
// (replay), one train step and one greedy forward pass (rl). The engine
// must be stopped: the probes use the DB() and Agent() escape hatches.
func engineProbes(m metricSet, eng *capes.Engine, cfg capes.Config) error {
	db, ag := eng.DB(), eng.Agent()
	rf := capes.RewardFunc(cfg.Objective, cfg.RewardMode)
	rng := rand.New(rand.NewSource(engineSeed))
	var b replay.Batch[capes.EnginePrecision]
	mb, err := timeUs(5, 1000, probeBudget, func() error {
		return replay.ConstructMinibatchInto(db, rng, cfg.Hyper.MinibatchSize, rf, &b)
	})
	if err != nil {
		return fmt.Errorf("minibatch probe: %w", err)
	}
	train, err := timeUs(5, 1000, probeBudget, func() error {
		_, err := ag.TrainStep(&b)
		return err
	})
	if err != nil {
		return fmt.Errorf("train-step probe: %w", err)
	}
	obs := make([]capes.EnginePrecision, db.ObservationWidth())
	_, hi := db.Bounds()
	if err := replay.ObservationInto(db, obs, hi); err != nil {
		return fmt.Errorf("observation for the greedy probe: %w", err)
	}
	greedy, err := timeUs(5, 10000, probeBudget, func() error {
		probeSink = ag.GreedyAction(obs)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("replay.minibatch_us", mb, "us")
	m.set("rl.train_step_us", train, "us")
	m.set("rl.greedy_action_us", greedy, "us")
	return nil
}

// computeProbeUs times the leader's local share of a cluster train
// tick — minibatch, gradients, optimizer apply — with no exchange.
func computeProbeUs(eng *capes.Engine, cfg capes.Config) (float64, error) {
	db, ag := eng.DB(), eng.Agent()
	rf := capes.RewardFunc(cfg.Objective, cfg.RewardMode)
	rng := rand.New(rand.NewSource(engineSeed))
	var b replay.Batch[capes.EnginePrecision]
	return timeUs(5, 1000, probeBudget, func() error {
		if err := replay.ConstructMinibatchInto(db, rng, cfg.Hyper.MinibatchSize, rf, &b); err != nil {
			return err
		}
		loss, err := ag.ComputeGradients(&b)
		if err != nil {
			return err
		}
		return ag.ApplyGradients(loss)
	})
}

// maxReplayMsgs caps how many messages of a stream the wire probe
// re-encodes (each indicator round trip costs ~0.5 ms).
const maxReplayMsgs = 1000

// wireStat accumulates one message type's replay figures.
type wireStat struct {
	enc, dec []float64 // µs per message
	bytes    int
	mallocs  uint64
}

func newWireStat(n int) *wireStat {
	return &wireStat{enc: make([]float64, 0, n), dec: make([]float64, 0, n), mallocs: mallocs()}
}

// roundTrip times one message through the wire: build plus Encode as
// the encode side, ReadMsg plus check as the decode side. check fails
// when the decoded message differs from what was built.
func (s *wireStat) roundTrip(r *bytes.Reader, build func() (*wire.Envelope, error), check func(*wire.Envelope) error) error {
	t0 := time.Now()
	env, err := build()
	if err != nil {
		return err
	}
	buf, err := wire.Encode(env)
	if err != nil {
		return err
	}
	t1 := time.Now()
	r.Reset(buf)
	got, err := wire.ReadMsg(r)
	if err == nil && got.Type != env.Type {
		err = fmt.Errorf("decoded a %s message", got.Type)
	}
	if err == nil {
		err = check(got)
	}
	if err != nil {
		return fmt.Errorf("wire replay of a %s message: %w", env.Type, err)
	}
	t2 := time.Now()
	s.enc = append(s.enc, float64(t1.Sub(t0).Nanoseconds())/1e3)
	s.dec = append(s.dec, float64(t2.Sub(t1).Nanoseconds())/1e3)
	s.bytes += len(buf)
	return nil
}

// errDiffers reports a decoded message that is not the one encoded.
var errDiffers = errors.New("decoded message differs from the one sent")

// set reports the stat as prefix_{encode,decode}_<unit>, _allocs and
// _bytes; scale converts µs to unit.
func (s *wireStat) set(m metricSet, prefix, unit string, scale float64) {
	n := float64(len(s.enc))
	if n == 0 {
		zeroWire(m, prefix, unit)
		return
	}
	m.set(prefix+"_encode_"+unit, median(s.enc)*scale, unit)
	m.set(prefix+"_decode_"+unit, median(s.dec)*scale, unit)
	m.set(prefix+"_allocs", float64(mallocs()-s.mallocs)/n, "count")
	m.set(prefix+"_bytes", float64(s.bytes)/n, "B")
}

func zeroWire(m metricSet, prefix, unit string) {
	for _, k := range []string{"_encode_" + unit, "_decode_" + unit} {
		m.set(prefix+k, 0, unit)
	}
	m.set(prefix+"_allocs", 0, "count")
	m.set(prefix+"_bytes", 0, "B")
}

// clusterWireZero reports the gradient-plane wire figures of a workload
// that does not use it.
func clusterWireZero(m metricSet) {
	zeroWire(m, "wire.gradframe", "ms")
	zeroWire(m, "wire.parambcast", "ms")
}

// agentWireZero reports the agent-plane wire figures of a workload that
// does not use it.
func agentWireZero(m metricSet) {
	zeroWire(m, "wire.indicators", "us")
	zeroWire(m, "wire.action", "us")
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// wireAgentProbes replays the run's own message streams through wire's
// public functions — each node's indicator vectors through DiffEncoder →
// Encode → ReadMsg → DiffDecoder, and the received actions through
// Encode → ReadMsg — checking that every message decodes to what was
// sent.
func wireAgentProbes(m metricSet, w agentWorkload, in *inputSet, l *loop) error {
	var r bytes.Reader
	perNode := min(len(in.pis), maxReplayMsgs/w.nodes)
	ind := newWireStat(perNode * w.nodes)
	// The closures are built once per stream so the allocation count is
	// the wire's own.
	for node := 0; node < w.nodes; node++ {
		enc, dec := wire.NewDiffEncoder(node, w.pis), wire.NewDiffDecoder(w.pis)
		var t int
		var pis []float64
		build := func() (*wire.Envelope, error) {
			msg, err := enc.Encode(int64(t), pis)
			return &wire.Envelope{Type: wire.MsgIndicators, Indicators: msg}, err
		}
		check := func(got *wire.Envelope) error {
			if got.Indicators == nil {
				return errDiffers
			}
			full, err := dec.Apply(got.Indicators)
			if err == nil && !equalFloats(full, pis) {
				err = errDiffers
			}
			return err
		}
		for t = 1; t <= perNode; t++ {
			pis = in.pis[t-1][node]
			if err := ind.roundTrip(&r, build, check); err != nil {
				return fmt.Errorf("node %d tick %d: %w", node, t, err)
			}
		}
	}
	ind.set(m, "wire.indicators", "us", 1)

	act := newWireStat(maxReplayMsgs)
	var a *wire.Action
	build := func() (*wire.Envelope, error) {
		return &wire.Envelope{Type: wire.MsgAction, Action: a}, nil
	}
	check := func(got *wire.Envelope) error {
		g := got.Action
		if g == nil || g.Tick != a.Tick || g.ID != a.ID || !equalFloats(g.Values, a.Values) {
			return errDiffers
		}
		return nil
	}
	for t := 1; t <= l.n && len(act.enc) < maxReplayMsgs; t++ {
		if l.recvAt[t] == 0 {
			continue
		}
		a = &wire.Action{Tick: int64(t), ID: l.recvID[t], Values: l.recvVals[t]}
		if err := act.roundTrip(&r, build, check); err != nil {
			return fmt.Errorf("action of tick %d: %w", t, err)
		}
	}
	act.set(m, "wire.action", "us", 1)
	return nil
}

// wireClusterProbes round-trips the gradient plane's messages at the
// run's exact shape: the leader's last gradient as a follower GradFrame
// and its parameters as a steady-state ParamBcast.
func wireClusterProbes(m metricSet, leader *capes.Engine, batch int) error {
	ag := leader.Agent()
	gf := &wire.GradFrame{Rank: 1, Epoch: 1, Step: ag.Steps() + 1, BatchN: batch, Loss: ag.LastLoss(),
		Grads: nn.ExportFlat(nil, ag.Online.FlatGrads())}
	pb := &wire.ParamBcast{Step: ag.Steps(), Loss: ag.LastLoss(), Params: nn.ExportFlat(nil, ag.Online.FlatParams())}
	var r bytes.Reader
	const reps = 5
	gs := newWireStat(reps)
	for i := 0; i < reps; i++ {
		err := gs.roundTrip(&r, func() (*wire.Envelope, error) {
			return &wire.Envelope{Type: wire.MsgGradFrame, GradFrame: gf}, nil
		}, func(got *wire.Envelope) error {
			if g := got.GradFrame; g == nil || g.Step != gf.Step || !equalFloat32s(g.Grads, gf.Grads) {
				return errDiffers
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	gs.set(m, "wire.gradframe", "ms", 1e-3)
	ps := newWireStat(reps)
	for i := 0; i < reps; i++ {
		err := ps.roundTrip(&r, func() (*wire.Envelope, error) {
			return &wire.Envelope{Type: wire.MsgParamBcast, ParamBcast: pb}, nil
		}, func(got *wire.Envelope) error {
			if g := got.ParamBcast; g == nil || g.Step != pb.Step || !equalFloat32s(g.Params, pb.Params) {
				return errDiffers
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	ps.set(m, "wire.parambcast", "ms", 1e-3)
	return nil
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func equalFloat32s(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
