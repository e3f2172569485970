package main

import (
	"math/rand"
	"time"

	"capes/internal/capes"
	"capes/internal/capesd"
	"capes/internal/storesim"
	"capes/internal/workload"
)

// engineSeed seeds every engine the benchmark builds: the workload seed
// shapes only the inputs, so the program sees nothing but generated
// indicator vectors.
const engineSeed = 1

// trainStartTicks is the engines' TrainStartTicks (the Table 1 default).
// The warm-up phase runs past it, so every measured tick trains.
var trainStartTicks = int(capes.DefaultHyperparameters().TrainStartTicks)

// agentWorkload is an open-loop workload driven through node agents: one
// goroutine sends every node's indicators for tick t at its due time,
// regardless of how the loop keeps up.
type agentWorkload struct {
	nodes    int
	pis      int // indicators per node
	obsTicks int // sampling ticks stacked per observation
	rate     float64
	inputs   func(w agentWorkload, seed int64, ticks int) (*inputSet, error)
}

// agentWorkloads are the two agent-plane workloads; README.md says why
// each was chosen. Both stay within nproc (2) agent connections, and
// their offered rates sit well below engine capacity: flooding the
// daemon corrupts frame assembly (gap-filled partials, duplicates), so
// capacity is measured as CPU per tick at a fixed rate instead.
var agentWorkloads = map[string]agentWorkload{
	// 2 nodes × 10 PIs × 25 stacked ticks = the paper's 500 network
	// inputs (5 clients × 10 PIs × 10 ticks, Table 1).
	"paper-rig": {nodes: 2, pis: storesim.NumClientPIs, obsTicks: 25,
		rate: 50, inputs: storesimInputs},
	"ingest-heavy": {nodes: 2, pis: 64, obsTicks: 1,
		rate: 200, inputs: syntheticInputs},
}

// inputSet is a workload's pre-generated indicator stream.
type inputSet struct {
	pis    [][][]float64 // pis[t-1][node]: the node's vector at tick t
	dueNs  []int64       // dueNs[t-1]: tick t's send time after the start
	tickUs float64       // mean µs per simulated storesim tick; 0 for synthetic inputs
}

// schedule sets the open-loop send times: tick t is due at (t-1)/rate
// seconds plus a seeded jitter of up to ±0.4 periods. The jitter keeps
// the arrivals from phase-locking with periodic work elsewhere on the
// host, which otherwise holds a run's latency in one of a few fixed
// modes for tens of seconds.
func (in *inputSet) schedule(seed int64, rate float64) {
	rng := rand.New(rand.NewSource(seed))
	period := float64(time.Second) / rate
	in.dueNs = make([]int64, len(in.pis))
	for t := range in.dueNs {
		in.dueNs[t] = int64((float64(t) + 0.8*(rng.Float64()-0.5)) * period)
	}
	in.dueNs[0] = 0
}

// storesimInputs runs the simulated cluster on the write-heavy
// randrw-1:9 workload of Fig. 2, one client per node. Actions are not
// fed back into the simulator: applying them at arrival time would make
// the inputs depend on timing, and the same seed must give the same
// inputs.
func storesimInputs(w agentWorkload, seed int64, ticks int) (*inputSet, error) {
	p := storesim.DefaultParams()
	p.Clients = w.nodes
	p.Seed = seed
	c, err := storesim.New(p, workload.NewRandRW(1, 9, seed))
	if err != nil {
		return nil, err
	}
	in := &inputSet{pis: make([][][]float64, ticks)}
	start := time.Now()
	for t := range in.pis {
		c.Tick(int64(t + 1))
		in.pis[t] = make([][]float64, w.nodes)
		for n := range in.pis[t] {
			in.pis[t][n] = c.ClientPIs(n, make([]float64, w.pis))
		}
	}
	in.tickUs = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(ticks)
	return in, nil
}

// syntheticInputs gives each node w.pis normalized indicators, a seeded
// quarter of which change every tick: the sparse-diff case DiffEncoder
// exists for.
func syntheticInputs(w agentWorkload, seed int64, ticks int) (*inputSet, error) {
	rng := rand.New(rand.NewSource(seed))
	cur := make([][]float64, w.nodes)
	for n := range cur {
		cur[n] = make([]float64, w.pis)
		for i := range cur[n] {
			cur[n][i] = rng.Float64()
		}
	}
	in := &inputSet{pis: make([][][]float64, ticks)}
	for t := range in.pis {
		in.pis[t] = make([][]float64, w.nodes)
		for n := range cur {
			for _, i := range rng.Perm(w.pis)[:w.pis/4] {
				cur[n][i] = rng.Float64()
			}
			in.pis[t][n] = append([]float64(nil), cur[n]...)
		}
	}
	return in, nil
}

// sessionConfig is the capesd session every agent workload runs against:
// the daemon defaults, lockstep training every tick from tick 64.
func sessionConfig(w agentWorkload, name string) capesd.SessionConfig {
	return capesd.SessionConfig{
		Name:         name,
		Listen:       "127.0.0.1:0",
		Clients:      w.nodes,
		PIsPerClient: w.pis,
		ObsTicks:     w.obsTicks,
		Seed:         engineSeed,
	}
}

// engineConfig is the capes.Config capesd derives from sessionConfig;
// the traced run builds its engine from it directly.
func engineConfig(w agentWorkload) (capes.Config, error) {
	space, err := capes.NewActionSpace(capes.LustreTunables()...)
	if err != nil {
		return capes.Config{}, err
	}
	h := capes.DefaultHyperparameters()
	h.TicksPerObservation = w.obsTicks
	return capes.Config{
		Hyper:      h,
		Space:      space,
		Objective:  capes.ThroughputObjective(w.nodes, w.pis, 2, 3),
		RewardMode: capes.RewardDelta,
		FrameWidth: w.nodes * w.pis,
		Seed:       engineSeed,
		Training:   true,
		Tuning:     true,
	}, nil
}
