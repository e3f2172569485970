package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"capes/internal/agent"
	"capes/internal/capes"
	"capes/internal/wire"
)

// dialAgents registers one agent per node; node 0 is also the control
// agent that receives actions, as in capes-sim.
func dialAgents(addr string, w agentWorkload) ([]*agent.NodeAgent, error) {
	agents := make([]*agent.NodeAgent, 0, w.nodes)
	for n := 0; n < w.nodes; n++ {
		role := "monitor"
		if n == 0 {
			role = "monitor+control"
		}
		a, err := agent.Dial(addr, n, w.pis, role)
		if err != nil {
			closeAgents(agents)
			return nil, fmt.Errorf("dial node %d: %w", n, err)
		}
		agents = append(agents, a)
	}
	return agents, nil
}

func closeAgents(agents []*agent.NodeAgent) {
	for _, a := range agents {
		a.Close()
	}
}

// loop is one open-loop pass of a workload's tick stream through node
// agents. Ticks 1..warm are the warm-up; warm+1..n are measured.
type loop struct {
	in      *inputSet
	agents  []*agent.NodeAgent
	eng     *capes.Engine
	space   *capes.ActionSpace
	clk     clock
	n, warm int

	due     []int64   // [t] due time
	lagMs   []float64 // measured ticks: send start − due
	sendErr []bool    // [t] some node's send failed

	// Written by the action consumer only; read after it exits.
	recvAt     []int64 // [t] arrival of tick t's action; 0 = none
	recvID     []int
	recvVals   [][]float64
	badActions int // duplicate, out-of-range or unknown-tick actions
	received   atomic.Int64

	// Traced run only (nil otherwise). Each is stored on one side of a
	// layer hand-off and read once the run has ended; see handoffSpans.
	spans     *spanLog
	sendDone  []atomic.Int64 // [t] when the tick's last send returned
	sinkAt    []atomic.Int64 // [t] when the daemon handed the tick's frame to the sink
	bcastDone []atomic.Int64 // [t] when the tick's broadcast returned

	// Measured phase: its runtime counters at either end, and a mark at
	// the start and at the end of each window of window ticks. Between
	// windows the generator waits for the loop to go idle and times the
	// host reference there; the pause is part of the schedule.
	window       int
	rt0, rt1     rtSample
	starts, ends []mark
	ref          *hostRef

	// The engine's completed train steps, sampled once a second off the
	// generator's path from the first measured tick to the end of drain.
	steps       []stepSample
	sampling    bool // the sampler runs; set and read by the generator
	stopSampler chan struct{}
	samplerDone chan struct{}
}

// stepSample is the engine's train-step count at a clock time.
type stepSample struct {
	wall  int64
	steps int64
}

func newLoop(w agentWorkload, in *inputSet, agents []*agent.NodeAgent, eng *capes.Engine, space *capes.ActionSpace, warm int, spans *spanLog) *loop {
	n := len(in.pis)
	l := &loop{
		in: in, agents: agents, eng: eng, space: space, clk: newClock(), n: n, warm: warm, window: int(w.rate),
		due: make([]int64, n+1), sendErr: make([]bool, n+1),
		recvAt: make([]int64, n+1), recvID: make([]int, n+1), recvVals: make([][]float64, n+1),
		spans: spans, stopSampler: make(chan struct{}), samplerDone: make(chan struct{}), ref: newHostRef(1),
	}
	if spans != nil {
		l.sendDone = make([]atomic.Int64, n+1)
		l.sinkAt = make([]atomic.Int64, n+1)
		l.bcastDone = make([]atomic.Int64, n+1)
	}
	return l
}

// quietPause is the room the schedule leaves before each measured window
// for the loop to go idle and the host reference to run.
const quietPause = 40 * time.Millisecond

// generate is the load generator: it sends every node's indicators for
// tick t at t's due time, never waiting on the loop. The measured phase
// starts at the first measured tick's due time and is cut into windows
// of window ticks (one second at the offered rate), each preceded by a
// quiet point.
func (l *loop) generate() {
	start := l.clk.now() + int64(time.Millisecond)
	var paused int64 // the quiet pauses so far, which push later ticks back
	for t := 1; t <= l.n; t++ {
		opens := t > l.warm && (t-l.warm-1)%l.window == 0
		if opens {
			l.quietPoint(t - 1)
			paused += int64(quietPause)
		}
		due := start + l.in.dueNs[t-1] + paused
		if d := time.Until(l.clk.at(due)); d > 0 {
			time.Sleep(d)
		}
		if t == l.warm+1 {
			l.rt0 = readRuntime()
			l.startSampler()
		}
		if opens {
			l.starts = append(l.starts, newMark(l.clk))
		}
		l.due[t] = due
		if t > l.warm {
			l.lagMs = append(l.lagMs, float64(l.clk.now()-due)/1e6)
		}
		for node, a := range l.agents {
			s0 := l.clk.now()
			if err := a.SendIndicators(int64(t), l.in.pis[t-1][node]); err != nil {
				l.sendErr[t] = true
			}
			l.spans.add(span{Tick: int64(t), Name: "agent.send", Node: node, Start: s0, End: l.clk.now()})
		}
		if l.sendDone != nil {
			l.sendDone[t].Store(l.clk.now())
		}
	}
}

// quietPoint waits, up to half a quiet pause, until the engine has
// trained on every one of the sent ticks, closes the open window, and
// times the host reference while the loop is idle.
func (l *loop) quietPoint(sent int) {
	want := int64(sent - trainStartTicks + 1)
	deadline := time.Now().Add(quietPause / 2)
	for l.eng.Stats().TrainSteps < want && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	if len(l.ends) < len(l.starts) {
		l.ends = append(l.ends, newMark(l.clk))
	}
	l.ref.pause()
}

// consume records each action's arrival at the control agent until the
// channel closes (the agent was closed).
func (l *loop) consume(actions <-chan wire.Action, done chan<- struct{}) {
	defer close(done)
	for act := range actions {
		at := l.clk.now()
		t := act.Tick
		if t < 1 || t > int64(l.n) || l.recvAt[t] != 0 || !l.inRange(act.Values) {
			l.badActions++
			continue
		}
		l.recvAt[t] = at
		l.recvID[t] = act.ID
		l.recvVals[t] = act.Values
		l.received.Add(1)
	}
}

func (l *loop) startSampler() {
	if !l.sampling {
		l.sampling = true
		go l.sampleSteps()
	}
}

// sampleSteps records the engine's train-step count now and once a
// second until drain stops it.
func (l *loop) sampleSteps() {
	defer close(l.samplerDone)
	tk := time.NewTicker(time.Second)
	defer tk.Stop()
	for {
		l.steps = append(l.steps, stepSample{l.clk.now(), l.eng.Stats().TrainSteps})
		select {
		case <-l.stopSampler:
			return
		case <-tk.C:
		}
	}
}

// handoffSpans records, once the traced run has ended, the two spans
// that cross a goroutine hand-off: agent.ingest, from the tick's last
// send returning to the sink's entry, and agent.action_recv, from the
// broadcast returning to the action's receipt. The receiving side can
// run before the sending side's call has returned; such a hand-off took
// no time past that return and is recorded with length 0.
func (l *loop) handoffSpans() {
	for t := 1; t <= l.n; t++ {
		if sent, in := l.sendDone[t].Load(), l.sinkAt[t].Load(); sent != 0 && in != 0 {
			l.spans.add(span{Tick: int64(t), Name: "agent.ingest", Cause: "agent.send", Start: sent, End: max(in, sent)})
		}
		if b := l.bcastDone[t].Load(); b != 0 && l.recvAt[t] != 0 {
			l.spans.add(span{Tick: int64(t), Name: "agent.action_recv", Cause: "agent.broadcast",
				Start: b, End: max(l.recvAt[t], b)})
		}
	}
}

func (l *loop) inRange(vals []float64) bool {
	if len(vals) != len(l.space.Tunables) {
		return false
	}
	for i, tun := range l.space.Tunables {
		if vals[i] < tun.Min || vals[i] > tun.Max {
			return false
		}
	}
	return true
}

// sentTicks counts ticks with at least one node's send delivered.
func (l *loop) sentTicks() int64 {
	var n int64
	for t := 1; t <= l.n; t++ {
		if !l.sendErr[t] {
			n++
		}
	}
	return n
}

// drain waits, after the last send, until the daemon has resolved every
// tick, the engine has ticked the last one and the control agent has
// every action the engine issued — or until a deadline. The measured
// phase ends there; a last quiet point follows.
func (l *loop) drain(transport func() agent.TransportStats) {
	eng := l.eng
	deadline := time.Now().Add(10 * time.Second)
	sent := l.sentTicks()
	wantSteps := int64(l.n - trainStartTicks + 1)
	for time.Now().Before(deadline) {
		// The order matters. Once the last tick has trained, its action
		// is in the distribution nonNull reads; once every action has
		// arrived, every broadcast has been attempted, and the transport
		// read last must show each attempt finished.
		if eng.Stats().TrainSteps >= wantSteps && l.received.Load() >= nonNull(eng) {
			tr := transport()
			if tr.PendingTicks == 0 && tr.CompleteFrames+tr.PartialFrames+tr.DroppedTicks >= sent &&
				tr.ActionsAttempted == tr.ActionsSent+tr.DroppedActions {
				break
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	if len(l.ends) < len(l.starts) {
		l.ends = append(l.ends, newMark(l.clk))
	}
	l.rt1 = readRuntime()
	l.startSampler() // in case no tick was measured
	close(l.stopSampler)
	<-l.samplerDone
	l.steps = append(l.steps, stepSample{l.clk.now(), eng.Stats().TrainSteps})
	l.ref.pause()
}

// loopStats is what a finished loop's engine and daemon report.
type loopStats struct {
	transport  agent.TransportStats
	trainSteps int64
	actionAt   func(tick int64) (int, bool)
	params     func() error // finiteness probe of the online network
}

// account checks a finished loop and counts its failed ticks. A tick
// fails on a send error or on a non-null engine action that never
// reached the control agent; transport outcomes other than one complete
// frame per tick (partial, dropped, pending or duplicated frames) and
// shed frames cannot be pinned to a tick and are added as counts.
func (l *loop) account(st loopStats, shed int64, cs *checks) (failed int64) {
	tr := st.transport
	cs.add("transport.tick_invariant", tr.TicksStarted == tr.CompleteFrames+tr.PartialFrames+tr.DroppedTicks+int64(tr.PendingTicks),
		"started=%d complete=%d partial=%d dropped=%d pending=%d",
		tr.TicksStarted, tr.CompleteFrames, tr.PartialFrames, tr.DroppedTicks, tr.PendingTicks)
	cs.add("transport.action_invariant", tr.ActionsAttempted == tr.ActionsSent+tr.DroppedActions,
		"attempted=%d sent=%d dropped=%d", tr.ActionsAttempted, tr.ActionsSent, tr.DroppedActions)
	n := int64(l.n)
	cs.add("one_complete_frame_per_tick", tr.TicksStarted == n && tr.CompleteFrames == n,
		"ticks=%d started=%d complete=%d", n, tr.TicksStarted, tr.CompleteFrames)
	wantSteps := n - int64(trainStartTicks) + 1
	cs.add("train_steps", st.trainSteps == wantSteps, "got=%d want=%d", st.trainSteps, wantSteps)

	var misses, mismatched, perTick int64
	for t := 1; t <= l.n; t++ {
		a, ok := st.actionAt(int64(t))
		missed := ok && a != capes.NullAction && l.recvAt[t] == 0
		if l.recvAt[t] != 0 && (!ok || a != l.recvID[t]) {
			mismatched++
		}
		if missed {
			misses++
		}
		if missed || l.sendErr[t] {
			perTick++
		}
	}
	cs.add("actions_valid", l.badActions == 0 && mismatched == 0,
		"received=%d missed=%d bad=%d not-matching-engine=%d", l.received.Load(), misses, l.badActions, mismatched)
	err := st.params()
	cs.add("params_finite", err == nil, "%v", errString(err))

	duplicates := tr.TicksStarted - l.sentTicks()
	if duplicates < 0 {
		duplicates = 0
	}
	failed = perTick + tr.PartialFrames + tr.DroppedTicks + int64(tr.PendingTicks) + duplicates + shed
	if failed > n {
		failed = n
	}
	return failed
}

// latencies returns the action latencies in ms of the measured ticks
// in [from, to]: from the tick's due time to its action's arrival at
// the control agent.
func (l *loop) latencies(from, to int) []float64 {
	var out []float64
	for t := from; t <= to; t++ {
		if l.recvAt[t] != 0 {
			out = append(out, float64(l.recvAt[t]-l.due[t])/1e6)
		}
	}
	return out
}

func (l *loop) measuredTicks() int { return l.n - l.warm }

// e2e is a run's end-to-end figures.
type e2e struct {
	latP50, latP90 float64 // ms
	ticksPerCPU    float64
	stepsPerSec    float64
}

// mark is a window's start or end: the process CPU time and the wall
// clock.
type mark struct {
	cpu  float64
	wall int64
}

func newMark(clk clock) mark { return mark{cpuSeconds(), clk.now()} }

// window is about one second of a measured phase: the ticks served (each
// trains once), the CPU and wall seconds they took, and their action
// latencies in ms.
type window struct {
	ticks     int
	cpu, wall float64
	lat       []float64
}

func newWindow(from, to mark, ticks int, lat []float64) window {
	return window{ticks: ticks, cpu: to.cpu - from.cpu, wall: float64(to.wall-from.wall) / 1e9, lat: lat}
}

// windowedE2E reports each figure as its median over a phase's
// windows, so a few seconds of CPU stolen by other tenants of the host
// do not set a run's figure.
func windowedE2E(ws []window) e2e {
	var p50, p90, perCPU, perSec []float64
	for _, w := range ws {
		if len(w.lat) > 0 {
			p50 = append(p50, quantile(w.lat, 0.50))
			p90 = append(p90, quantile(w.lat, 0.90))
		}
		perCPU = append(perCPU, float64(w.ticks)/w.cpu)
		perSec = append(perSec, float64(w.ticks)/w.wall)
	}
	return e2e{latP50: median(p50), latP90: median(p90), ticksPerCPU: median(perCPU), stepsPerSec: median(perSec)}
}

// endToEnd computes the loop's end-to-end figures over its measured
// phase, cut into windows of one second of ticks at the offered rate.
// The train-step rate is the engine's own: the median over the sampler's
// one-second intervals of the train steps completed per wall second. It
// equals the offered rate while the engine keeps up and falls below it
// when the engine cannot.
func (l *loop) endToEnd() e2e {
	var ws []window
	for i := range l.starts {
		from := l.warm + 1 + i*l.window
		to := min(from+l.window-1, l.n)
		ws = append(ws, newWindow(l.starts[i], l.ends[i], to-from+1, l.latencies(from, to)))
	}
	e := windowedE2E(ws)
	var rates []float64
	for i := 0; i+1 < len(l.steps); i++ {
		a, b := l.steps[i], l.steps[i+1]
		// The last interval ends with the drain and can be short.
		if wall := float64(b.wall-a.wall) / 1e9; wall >= 0.5 {
			rates = append(rates, float64(b.steps-a.steps)/wall)
		}
	}
	e.stepsPerSec = median(rates)
	return e
}

// set reports the gated end-to-end metrics scaled by the run's host
// reference (hostRef.scale). An open loop's train-step rate is its
// offered rate while the engine keeps up, not a host-bound figure, so
// only a closed loop's is scaled. The p90
// latency is not gated: on a 2-vCPU host it swings by more than any
// allowed bound between runs, so it is reported beside them (and as a
// per-layer figure of the traced run) without a bound.
func (e e2e) set(m metricSet, scale float64, closedLoop bool) {
	m.set("action_latency_p50_ms", e.latP50/scale, "ms")
	m.set("ticks_per_cpu_s", e.ticksPerCPU*scale, "1/s")
	steps := e.stepsPerSec
	if closedLoop {
		steps *= scale
	}
	m.set("train_steps_per_s", steps, "1/s")
}

func (e e2e) String() string {
	return fmt.Sprintf("action_latency_p50_ms=%.4f action_latency_p90_ms=%.4f ticks_per_cpu_s=%.4f train_steps_per_s=%.4f",
		e.latP50, e.latP90, e.ticksPerCPU, e.stepsPerSec)
}
