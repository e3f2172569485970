package capes

import "capes/internal/replay"

// trainer is one engine mode's training schedule. There is one
// implementation per mode: lockstep (below), the two-stage pipeline
// (pipeline.go) and the cluster leader and follower (cluster.go). The
// engine calls every method with e.mu held, so Tick, the telemetry
// sample, Stats, Stop and the checkpoint paths never branch on the
// mode.
type trainer interface {
	// beginTick runs at the top of every Tick, before the tick writes
	// to the replay ring.
	beginTick()
	// step runs the train step due at tick now.
	step(now int64)
	// counters reports the train-step count, loss EWMA and TD-error
	// EWMA that telemetry and Stats may read: never state an in-flight
	// step is still mutating.
	counters() (steps int64, loss, tdErr float64)
	// fillStats writes the mode's own Stats fields.
	fillStats(s *Stats)
	// quiesce joins in-flight work, so the caller may read or replace
	// the agent and the replay DB.
	quiesce()
	// realign rebinds the trainer after RestoreSession replaced the
	// agent and the replay DB.
	realign()
	// close shuts the trainer down. Idempotent.
	close()
}

// lockstep is the default mode: sample, act, assemble the minibatch
// and train, all inside one tick on the caller's goroutine. The cluster
// trainers embed it: their schedule is just as synchronous, and they
// share its counters.
type lockstep struct{ e *Engine }

func (lockstep) beginTick()       {}
func (lockstep) fillStats(*Stats) {}
func (lockstep) quiesce()         {}
func (lockstep) realign()         {}
func (lockstep) close()           {}

func (t lockstep) step(now int64) {
	e := t.e
	if !e.drawBatchLocked() {
		return // not enough data yet
	}
	_, err := e.agent.TrainStep(&e.batch)
	e.stepDoneLocked(err, now)
}

func (t lockstep) counters() (int64, float64, float64) {
	a := t.e.agent
	return a.Steps(), a.SmoothedLoss(), a.TDErrorEMA()
}

// drawBatchLocked samples the synchronous modes' minibatch into e.batch
// and arms any injected poison for the step about to run; e.mu held.
// False means the DB cannot form a minibatch yet.
func (e *Engine) drawBatchLocked() bool {
	if replay.ConstructMinibatchInto(e.db, e.rng, e.cfg.Hyper.MinibatchSize, e.rewardFn, &e.batch) != nil {
		return false
	}
	e.maybePoisonLocked()
	return true
}

// stepDoneLocked is the bookkeeping every mode runs once a train step
// has landed and the trainer is idle: a failed step counts as a
// training error, and a good one runs the due parameter probe; e.mu
// held.
func (e *Engine) stepDoneLocked(err error, now int64) {
	if !e.trainFaultLocked(err, now) {
		e.maybeProbeLocked(e.agent.Steps(), now)
	}
}
