package main

import (
	"sync"

	"capes/internal/agent"
	"capes/internal/capes"
	"capes/internal/replay"
)

// broadcastMsg is one applied action queued for the broadcaster.
type broadcastMsg struct {
	tick   int64
	action int
	values []float64
}

// runTraced wires the loop capesd.Session runs — agent.NewDaemonOpts →
// FrameSink → capes.Engine.Tick → ActionHook → queue →
// Daemon.BroadcastAction — from the layers' exported entry points, and
// records a span around each call. The gap between its end-to-end
// figures and the session run's bounds the tracing overhead plus the
// session layer.
func runTraced(w agentWorkload, in *inputSet, warm int, spans *spanLog, cs *checks) (*loop, error) {
	cfg, err := engineConfig(w)
	if err != nil {
		return nil, err
	}
	var sinkMu sync.Mutex // serializes the sink; guards latest
	var latest replay.Frame
	eng, err := capes.NewEngine(cfg,
		func() (replay.Frame, error) { return latest, nil },
		func([]float64) error { return nil })
	if err != nil {
		return nil, err
	}
	// Like the session's queue: the hook runs under the engine lock, so
	// it never blocks; a full queue drops its oldest action.
	queue := make(chan broadcastMsg, 16)
	eng.SetActionHook(func(tick int64, action int, values []float64) {
		msg := broadcastMsg{tick, action, append([]float64(nil), values...)}
		for {
			select {
			case queue <- msg:
				return
			default:
			}
			select {
			case <-queue:
			default:
			}
		}
	})

	// The loop exists before the daemon's goroutines that read it; its
	// agents are attached once they have registered.
	l := newLoop(w, in, nil, eng, cfg.Space, warm, spans)
	sink := func(tick int64, frame []float64) {
		if tick >= 1 && tick <= int64(l.n) {
			l.sinkAt[tick].CompareAndSwap(0, l.clk.now())
		}
		sinkMu.Lock()
		latest = frame
		before := eng.Agent().Steps()
		t0 := l.clk.now()
		eng.Tick(tick)
		t1 := l.clk.now()
		name := "capes.tick"
		if eng.Agent().Steps() != before {
			name = "capes.train_tick"
		}
		sinkMu.Unlock()
		spans.add(span{Tick: tick, Name: name, Cause: "agent.ingest", Start: t0, End: t1})
	}
	dmn, err := agent.NewDaemonOpts("127.0.0.1:0", w.nodes, w.pis, sink, nil, agent.DaemonOpts{})
	if err != nil {
		eng.Stop()
		return nil, err
	}
	agents, err := dialAgents(dmn.Addr(), w)
	if err != nil {
		eng.Stop()
		dmn.Close()
		return nil, err
	}
	l.agents = agents

	bcastDone := make(chan struct{})
	go func() {
		defer close(bcastDone)
		for msg := range queue {
			b0 := l.clk.now()
			dmn.BroadcastAction(msg.tick, msg.action, msg.values)
			b1 := l.clk.now()
			if msg.tick >= 1 && msg.tick <= int64(l.n) {
				l.bcastDone[msg.tick].Store(b1)
			}
			spans.add(span{Tick: msg.tick, Name: "agent.broadcast", Cause: "capes.train_tick", Start: b0, End: b1})
		}
	}()
	done := make(chan struct{})
	go l.consume(agents[0].Actions(), done)
	l.generate()
	l.drain(dmn.TransportStats)

	tr := dmn.TransportStats()
	closeAgents(agents)
	<-done
	eng.Stop()
	close(queue)
	<-bcastDone
	dmn.Close()
	l.handoffSpans()

	st := eng.Stats()
	stats := loopStats{transport: tr, trainSteps: st.TrainSteps, actionAt: eng.DB().ActionAt, params: eng.Agent().ProbeFinite}
	var traced checks
	l.account(stats, 0, &traced)
	for _, c := range traced {
		cs.add("traced."+c.name, c.ok, "%s", c.info)
	}
	return l, nil
}

// tracedLayerMetrics derives the per-layer timings from the traced run's
// spans over its measured ticks.
func tracedLayerMetrics(m metricSet, l *loop, spans *spanLog) {
	from, to := int64(l.warm), int64(l.n)
	send := spans.durations("agent.send", from, to)
	m.set("agent.send_us_p50", quantile(send, 0.50), "us")
	m.set("agent.send_us_p99", quantile(send, 0.99), "us")
	m.set("agent.ingest_us_p50", median(spans.durations("agent.ingest", from, to)), "us")
	m.set("agent.broadcast_us_p50", median(spans.durations("agent.broadcast", from, to)), "us")
	m.set("agent.action_recv_us_p50", median(spans.durations("agent.action_recv", from, to)), "us")
	train := spans.durations("capes.train_tick", from, to)
	ticks := append(spans.durations("capes.tick", from, to), train...)
	m.set("capes.tick_us_p50", quantile(ticks, 0.50), "us")
	m.set("capes.tick_us_p99", quantile(ticks, 0.99), "us")
	m.set("capes.train_tick_us_p50", median(train), "us")
}
