package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"capes/internal/capes"
	"capes/internal/replay"
)

// The cluster-train workload is capes-sim -cluster-followers 1: a leader
// and one follower engine in cluster mode on a synthetic collector,
// 30-wide frames × 10 stacked ticks (~187k parameters), exchanging a
// GradFrame and a ParamBcast per step over loopback. It is a closed
// loop: each round ticks both engines once and waits for both.
const (
	clusterWidth = 30
	clusterObs   = 10
	// clusterWarmSteps train steps, after the first at trainStartTicks,
	// precede the measured rounds.
	clusterWarmSteps = 16
	// clusterTimeout bounds the leader's gradient collect and the
	// follower's sync and broadcast waits.
	clusterTimeout = 10 * time.Second
)

func clusterEngineConfig(cc *capes.ClusterConfig) (capes.Config, error) {
	space, err := capes.NewActionSpace(capes.Tunable{Name: "p", Min: 0, Max: 100, Step: 5, Default: 50})
	if err != nil {
		return capes.Config{}, err
	}
	h := capes.DefaultHyperparameters()
	h.TicksPerObservation = clusterObs
	return capes.Config{
		Hyper:      h,
		Space:      space,
		Objective:  capes.SumIndices(0),
		FrameWidth: clusterWidth,
		Seed:       engineSeed,
		Training:   true,
		Tuning:     true,
		Cluster:    cc,
	}, nil
}

// clusterInputs is capes-sim's synthetic cluster collector with a seeded
// value table: indicator i at tick t reads table[(7t+13i) mod 101].
type clusterInputs []float64

func newClusterInputs(seed int64) clusterInputs {
	perm := rand.New(rand.NewSource(seed)).Perm(101)
	table := make(clusterInputs, len(perm))
	for i, p := range perm {
		table[i] = float64(p) / float64(len(perm))
	}
	return table
}

func (c clusterInputs) frame(tick int64) replay.Frame {
	f := make(replay.Frame, clusterWidth)
	for i := range f {
		f[i] = c[(tick*7+int64(i)*13)%int64(len(c))]
	}
	return f
}

// clusterWorker is one engine ticked by a goroutine of its own.
type clusterWorker struct {
	eng  *capes.Engine
	cfg  capes.Config
	tick int64 // the tick in flight; read by the collector inside Tick
}

func newClusterWorker(cc *capes.ClusterConfig, in clusterInputs) (*clusterWorker, error) {
	cfg, err := clusterEngineConfig(cc)
	if err != nil {
		return nil, err
	}
	w := &clusterWorker{cfg: cfg}
	w.eng, err = capes.NewEngine(cfg,
		func() (replay.Frame, error) { return in.frame(w.tick), nil },
		func([]float64) error { return nil })
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *clusterWorker) run(tick int64) {
	w.tick = tick
	w.eng.Tick(tick)
}

// serve ticks the engine for every tick received on in and reports each
// tick's start and end on the returned channel, which closes once in
// does.
func (w *clusterWorker) serve(clk clock, in <-chan int64) <-chan [2]int64 {
	out := make(chan [2]int64)
	go func() {
		defer close(out)
		for t := range in {
			t0 := clk.now()
			w.run(t)
			out <- [2]int64{t0, clk.now()}
		}
	}()
	return out
}

// clusterSetup builds the leader and follower and syncs the follower:
// the set-up setup_s times.
func clusterSetup(in clusterInputs) (leader, follower *clusterWorker, err error) {
	leader, err = newClusterWorker(&capes.ClusterConfig{
		Role: capes.ClusterLeader, Listen: "127.0.0.1:0", CollectTimeout: clusterTimeout,
	}, in)
	if err != nil {
		return nil, nil, err
	}
	follower, err = newClusterWorker(&capes.ClusterConfig{
		Role: capes.ClusterFollower, LeaderAddr: leader.eng.ClusterAddr(), Rank: 1, SyncTimeout: clusterTimeout,
	}, in)
	if err == nil {
		err = follower.eng.ClusterSync()
		if err != nil {
			follower.eng.Stop()
		}
	}
	if err != nil {
		leader.eng.Stop()
		return nil, nil, fmt.Errorf("cluster set-up: %w", err)
	}
	return leader, follower, nil
}

func runClusterTrain(o options) (*runOutput, error) {
	in := newClusterInputs(o.seed)
	pair, setups, err := timeSetups(o, func() ([2]*clusterWorker, error) {
		l, f, err := clusterSetup(in)
		return [2]*clusterWorker{l, f}, err
	}, func(p [2]*clusterWorker) error {
		p[1].eng.Stop()
		p[0].eng.Stop()
		return nil
	})
	if err != nil {
		return nil, err
	}
	leader, follower := pair[0], pair[1]
	defer leader.eng.Stop()
	defer follower.eng.Stop()

	var spans *spanLog
	if o.trace {
		spans = newSpanLog(4 * 1024)
	}
	clk := newClock()
	lin, fin := make(chan int64), make(chan int64)
	lout, fout := leader.serve(clk, lin), follower.serve(clk, fin)

	// Rounds: dispatch tick t to both engines, wait for both. The
	// measured phase starts after the warm-up and ends at the first
	// round boundary past o.seconds.
	warm := int64(trainStartTicks + clusterWarmSteps)
	var leaderTick []float64 // µs, measured rounds
	var rt0, rt1 rtSample
	var measureEnd, nextWindow int64
	// Windows start at the first round boundary past each second, after
	// a quiet point that times the host reference while both engines
	// are idle; lat[i] holds window i's action latencies.
	ref := newHostRef(2)
	var starts, ends []mark
	var ticks []int
	var lat [][]float64
	var t int64
	for t = 1; ; t++ {
		now := clk.now()
		if t == warm+1 {
			rt0 = readRuntime()
			measureEnd = now + int64(o.seconds*float64(time.Second))
			nextWindow = now
		} else if t > warm+1 && now >= measureEnd {
			break
		}
		if t > warm && now >= nextWindow {
			if len(ends) < len(starts) {
				ends = append(ends, newMark(clk))
			}
			ref.pause()
			now = clk.now()
			starts = append(starts, newMark(clk))
			ticks = append(ticks, 0)
			lat = append(lat, nil)
			nextWindow += int64(time.Second)
		}
		lin <- t
		fin <- t
		lt, ft := <-lout, <-fout
		end := clk.now()
		if t > warm {
			leaderTick = append(leaderTick, float64(lt[1]-lt[0])/1e3)
			i := len(starts) - 1
			ticks[i]++
			// The round's action latency: from its start until the
			// follower's Tick returns holding the step's broadcast
			// parameters, which its next action is chosen from.
			lat[i] = append(lat[i], float64(ft[1]-now)/1e6)
		}
		spans.add(span{Tick: t, Name: "capes.round", Start: now, End: end})
		spans.add(span{Tick: t, Name: "capes.train_tick", Node: 0, Cause: "capes.round", Start: lt[0], End: lt[1]})
		spans.add(span{Tick: t, Name: "capes.train_tick", Node: 1, Cause: "capes.round", Start: ft[0], End: ft[1]})
	}
	n := t - 1
	ends = append(ends, newMark(clk))
	rt1 = readRuntime()
	ref.pause()
	close(lin)
	close(fin)
	for range lout {
	}
	for range fout {
	}

	ls, fs := leader.eng.Stats(), follower.eng.Stats()
	out := &runOutput{res: result{Attempted: n, Metrics: metricSet{}}}
	cs := &out.checks
	cluStats := capes.ClusterStats{}
	if ls.Cluster != nil {
		cluStats = *ls.Cluster
	}
	wantSteps := n - int64(trainStartTicks) + 1
	cs.add("train_steps", ls.TrainSteps == wantSteps && fs.TrainSteps == wantSteps,
		"leader=%d follower=%d want=%d", ls.TrainSteps, fs.TrainSteps, wantSteps)
	cs.add("cluster.all_steps_aggregated", cluStats.AggrSteps == ls.TrainSteps,
		"aggregated=%d steps=%d", cluStats.AggrSteps, ls.TrainSteps)
	cs.add("cluster.no_stale_or_evicted", cluStats.FramesStale == 0 && cluStats.Evictions == 0,
		"stale=%d evictions=%d", cluStats.FramesStale, cluStats.Evictions)
	cs.add("cluster.follower_in_sync",
		equalFloat32s(leader.eng.Agent().Online.FlatParams(), follower.eng.Agent().Online.FlatParams()), "")
	err = leader.eng.Agent().ProbeFinite()
	cs.add("params_finite", err == nil, "%v", errString(err))
	cs.add("no_divergence_trips", ls.DivergenceTrips == 0 && fs.DivergenceTrips == 0,
		"leader=%d follower=%d", ls.DivergenceTrips, fs.DivergenceTrips)
	sum, same, err := singleProcessParity(in, n, leader.eng.Agent().Online.FlatParams())
	if err != nil {
		return nil, err
	}
	cs.add("cluster.parity_with_single_process", same, "param-checksum=%.9e ticks=%d", sum, n)

	failed := (wantSteps - cluStats.AggrSteps) + cluStats.FramesStale + cluStats.Evictions
	out.res.Failed = min(max(failed, 0), n)

	measured := n - warm
	var windows []window
	var samples int
	for i := range lat {
		windows = append(windows, newWindow(starts[i], ends[i], ticks[i], lat[i]))
		samples += len(lat[i])
	}
	e := windowedE2E(windows)
	scale := ref.scale()
	out.notes = append(out.notes,
		fmt.Sprintf("cluster: rounds=%d measured=%d latency_samples=%d steps=%d aggregated=%d failed=%d",
			n, measured, samples, ls.TrainSteps, cluStats.AggrSteps, out.res.Failed),
		hostNote(ref, median(setups)),
		"untraced: "+e.String())
	m := out.res.Metrics
	if !o.trace {
		e.set(m, scale, true)
		m.set("setup_s", median(setups)/scale, "s")
		m.set("peak_rss_mb", peakRSSMB(), "MB")
		return out, nil
	}
	m.set("host.ref_chunk_us", ref.chunkUs(), "us")

	// Per-layer figures. The rounds above are the traced run: timing two
	// Tick calls per ~100 ms round costs nothing measurable, so the
	// traced and untraced end-to-end figures are the same run.
	overheadMetrics(m, e, e)
	m.set("capes.tick_us_p50", quantile(leaderTick, 0.50), "us")
	m.set("capes.tick_us_p99", quantile(leaderTick, 0.99), "us")
	trainTick := median(leaderTick)
	m.set("capes.train_tick_us_p50", trainTick, "us")
	runtimeMetrics(m, rt0, rt1, int(measured))
	leader.eng.Stop()
	follower.eng.Stop()
	if err := wireClusterProbes(m, leader.eng, leader.cfg.Hyper.MinibatchSize); err != nil {
		return nil, err
	}
	compute, err := computeProbeUs(leader.eng, leader.cfg)
	if err != nil {
		return nil, err
	}
	m.set("capes.cluster_exchange_ms", (trainTick-compute)/1e3, "ms")
	if err := engineProbes(m, leader.eng, leader.cfg); err != nil {
		return nil, err
	}
	agentWireZero(m)
	for _, name := range []string{
		"agent.send_us_p50", "agent.send_us_p99", "agent.ingest_us_p50", "agent.broadcast_us_p50",
		"agent.action_recv_us_p50", "storesim.tick_us",
	} {
		m.set(name, 0, "us")
	}
	for _, name := range []string{
		"agent.complete_frames", "agent.partial_frames", "agent.duplicate_frames", "agent.dropped_ticks",
		"agent.dropped_actions", "capesd.shed_frames", "capesd.supervisor_trips", "capesd.superseded_actions",
	} {
		m.set(name, 0, "count")
	}
	m.set("agent.bytes_per_msg", 0, "B")
	m.set("loadgen.lag_p99_ms", 0, "ms")
	if err := spans.write(o.spansDir); err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("spans: %d written to %s", len(spans.spans), o.spansDir))
	return out, nil
}

// singleProcessParity ticks a plain engine — no cluster, same seed and
// inputs — for ticks ticks and compares its online parameters with want
// bit for bit. Averaging identical gradients is exact, so a leader and
// follower fed the same inputs must land on the single-process
// trajectory. It returns the plain engine's parameter checksum.
func singleProcessParity(in clusterInputs, ticks int64, want []float32) (float64, bool, error) {
	w, err := newClusterWorker(nil, in)
	if err != nil {
		return 0, false, err
	}
	defer w.eng.Stop()
	for t := int64(1); t <= ticks; t++ {
		w.run(t)
	}
	got := w.eng.Agent().Online.FlatParams()
	var sum float64
	for _, p := range got {
		sum += float64(p)
	}
	return sum, !math.IsNaN(sum) && equalFloat32s(got, want), nil
}
