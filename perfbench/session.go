package main

import (
	"fmt"

	"capes/internal/agent"
	"capes/internal/capes"
	"capes/internal/capesd"
)

// runAgentWorkload is one run of paper-rig or ingest-heavy. The
// end-to-end figures come from the capesd session loop; with -trace 1
// a second, traced loop wired from the layers' exported entry points
// gives the per-layer figures.
func runAgentWorkload(w agentWorkload, o options) (*runOutput, error) {
	warm := int(w.rate) // one second of ticks
	if warm < trainStartTicks+32 {
		warm = trainStartTicks + 32
	}
	ticks := warm + int(w.rate*o.seconds)
	in, err := w.inputs(w, o.seed, ticks)
	if err != nil {
		return nil, err
	}
	in.schedule(o.seed, w.rate)
	out := &runOutput{res: result{Metrics: metricSet{}}}
	sr, err := runSession(w, in, warm, o, &out.checks)
	if err != nil {
		return nil, err
	}
	out.res.Attempted = int64(ticks)
	out.res.Failed = sr.failed
	lat := sr.l.latencies(warm+1, ticks)
	untraced := sr.l.endToEnd()
	scale := sr.l.ref.scale()
	out.notes = append(out.notes,
		fmt.Sprintf("session: ticks=%d measured=%d rate=%g/s latency_samples=%d lag_p99_ms=%.3f failed=%d",
			ticks, sr.l.measuredTicks(), w.rate, len(lat), quantile(sr.l.lagMs, 0.99), sr.failed),
		hostNote(sr.l.ref, median(sr.setups)),
		"untraced: "+untraced.String())
	m := out.res.Metrics
	if !o.trace {
		untraced.set(m, scale, false)
		m.set("setup_s", median(sr.setups)/scale, "s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		return out, nil
	}

	m.set("host.ref_chunk_us", sr.l.ref.chunkUs(), "us")
	sessionLayerMetrics(m, sr)
	if err := engineProbes(m, sr.eng, sr.cfg); err != nil {
		return nil, err
	}
	if err := wireAgentProbes(m, w, in, sr.l); err != nil {
		return nil, err
	}
	m.set("storesim.tick_us", in.tickUs, "us")
	m.set("capes.cluster_exchange_ms", 0, "ms")
	clusterWireZero(m)

	spans := newSpanLog(ticks * (w.nodes + 4))
	tl, err := runTraced(w, in, warm, spans, &out.checks)
	if err != nil {
		return nil, err
	}
	tracedLayerMetrics(m, tl, spans)
	if err := spans.write(o.spansDir); err != nil {
		return nil, err
	}
	traced := tl.endToEnd()
	out.notes = append(out.notes, "traced:   "+traced.String(),
		fmt.Sprintf("spans: %d written to %s", len(spans.spans), o.spansDir))
	overheadMetrics(m, untraced, traced)
	return out, nil
}

// overheadMetrics reports the traced run's end-to-end figures beside the
// untraced run's, both as measured, not scaled to reference speed: their
// gap bounds the tracing overhead.
func overheadMetrics(m metricSet, untraced, traced e2e) {
	m.set("untraced.action_latency_p50_ms", untraced.latP50, "ms")
	m.set("untraced.action_latency_p90_ms", untraced.latP90, "ms")
	m.set("untraced.ticks_per_cpu_s", untraced.ticksPerCPU, "1/s")
	m.set("traced.action_latency_p50_ms", traced.latP50, "ms")
	m.set("traced.action_latency_p90_ms", traced.latP90, "ms")
	m.set("traced.ticks_per_cpu_s", traced.ticksPerCPU, "1/s")
}

// sessionRun is the outcome of the capesd session loop.
type sessionRun struct {
	l          *loop
	setups     []float64
	stats      loopStats
	sup        capesd.SupervisorStats
	superseded int64
	bytes      int64 // indicator bytes the node agents sent
	msgs       int64
	failed     int64
	eng        *capes.Engine
	cfg        capes.Config
}

// sessionSetup is one set-up of the session run: a session with its
// node agents registered.
type sessionSetup struct {
	sess   *capesd.Session
	agents []*agent.NodeAgent
}

// runSession drives the workload through a capesd.Manager session: the
// production path, untraced. The set-up (session build plus agent
// registration) is repeated as timeSetups says and the last one is used.
func runSession(w agentWorkload, in *inputSet, warm int, o options, cs *checks) (*sessionRun, error) {
	cfg, err := engineConfig(w)
	if err != nil {
		return nil, err
	}
	m := capesd.NewManager()
	defer m.Shutdown()
	sr := &sessionRun{cfg: cfg}
	k := 0
	su, setups, err := timeSetups(o, func() (sessionSetup, error) {
		k++
		s, err := m.Create(sessionConfig(w, fmt.Sprintf("bench-%d", k)))
		if err != nil {
			return sessionSetup{}, fmt.Errorf("create session: %w", err)
		}
		ags, err := dialAgents(s.Addr(), w)
		return sessionSetup{s, ags}, err
	}, func(su sessionSetup) error {
		closeAgents(su.agents)
		return m.Delete(su.sess.Name())
	})
	if err != nil {
		return nil, err
	}
	sr.setups = setups
	sess, agents := su.sess, su.agents
	eng := sess.Engine()
	sr.eng = eng

	l := newLoop(w, in, agents, eng, cfg.Space, warm, nil)
	sr.l = l
	done := make(chan struct{})
	go l.consume(agents[0].Actions(), done)
	l.generate()
	l.drain(func() agent.TransportStats { return sess.Stats().Transport })

	st := sess.Stats()
	issued := nonNull(eng)
	for _, a := range agents {
		b, n := a.TrafficStats()
		sr.bytes += b
		sr.msgs += n
	}
	health := sess.Health()
	closeAgents(agents)
	<-done
	m.Shutdown()

	sr.sup = st.Supervisor
	sr.superseded = issued - st.Transport.ActionsAttempted
	sr.stats = loopStats{
		transport:  st.Transport,
		trainSteps: st.Engine.TrainSteps,
		actionAt:   eng.DB().ActionAt,
		params:     eng.Agent().ProbeFinite,
	}
	sr.failed = l.account(sr.stats, st.Supervisor.ShedFrames, cs)
	cs.add("supervisor_healthy", health == capesd.HealthHealthy && st.Supervisor.Trips == 0,
		"health=%s trips=%d", health, st.Supervisor.Trips)
	return sr, nil
}

// nonNull counts the non-null actions an engine has issued: each one is
// broadcast, so each should reach the control agent.
func nonNull(eng *capes.Engine) int64 {
	var n int64
	for id, c := range eng.ActionDistribution() {
		if id != capes.NullAction {
			n += c
		}
	}
	return n
}

// sessionLayerMetrics sets the counts the capesd session reports.
func sessionLayerMetrics(m metricSet, sr *sessionRun) {
	tr := sr.stats.transport
	duplicates := tr.TicksStarted - sr.l.sentTicks()
	if duplicates < 0 {
		duplicates = 0
	}
	m.set("agent.bytes_per_msg", float64(sr.bytes)/float64(sr.msgs), "B")
	m.set("agent.complete_frames", float64(tr.CompleteFrames), "count")
	m.set("agent.partial_frames", float64(tr.PartialFrames), "count")
	m.set("agent.duplicate_frames", float64(duplicates), "count")
	m.set("agent.dropped_ticks", float64(tr.DroppedTicks), "count")
	m.set("agent.dropped_actions", float64(tr.DroppedActions), "count")
	m.set("capesd.shed_frames", float64(sr.sup.ShedFrames), "count")
	m.set("capesd.supervisor_trips", float64(sr.sup.Trips), "count")
	m.set("capesd.superseded_actions", float64(sr.superseded), "count")
	m.set("loadgen.lag_p99_ms", quantile(sr.l.lagMs, 0.99), "ms")
	runtimeMetrics(m, sr.l.rt0, sr.l.rt1, sr.l.measuredTicks())
}
