package capes

import (
	"reflect"
	"testing"
	"time"

	"capes/internal/replay"
)

// TestTrainerModeCounters: in every mode, Stats and the telemetry ring
// read the same trainer counters, and Stop is idempotent. The pipelined
// mode's Stop harvests the one step still in flight, so its Stats run
// exactly one step ahead of the last sample taken before Stop.
func TestTrainerModeCounters(t *testing.T) {
	const n = 300 // a multiple of HistoryEvery: tick n records a sample
	for _, tc := range []struct {
		name     string
		inFlight int64 // steps Stop harvests after the last sample
		mode     func(*Config)
	}{
		{"lockstep", 0, func(*Config) {}},
		{"pipelined", 1, func(c *Config) { c.Pipeline = true }},
		{"solo-leader", 0, func(c *Config) {
			c.Cluster = &ClusterConfig{Role: ClusterLeader, Listen: "127.0.0.1:0", CollectTimeout: 50 * time.Millisecond}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, _ := smallConfig(t, true, true)
			cfg.HistoryEvery = 10
			tc.mode(&cfg)
			var tick int64
			eng, err := NewEngine(cfg,
				func() (replay.Frame, error) { return tickFrame(tick), nil },
				func([]float64) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			for tick = 1; tick <= n; tick++ {
				eng.Tick(tick)
			}
			hist := eng.History()
			last := hist[len(hist)-1]
			if last.Tick != n || last.TrainSteps == 0 {
				t.Fatalf("last sample %+v, want a trained sample at tick %d", last, n)
			}
			if st := eng.Stats(); st.TrainSteps != last.TrainSteps || st.SmoothedLoss != last.Loss {
				t.Fatalf("before Stop: stats %d steps / loss %v, last sample %d / %v",
					st.TrainSteps, st.SmoothedLoss, last.TrainSteps, last.Loss)
			}

			eng.Stop()
			st := eng.Stats()
			if st.TrainSteps != last.TrainSteps+tc.inFlight {
				t.Fatalf("after Stop: %d train steps, want %d + %d in flight", st.TrainSteps, last.TrainSteps, tc.inFlight)
			}
			if st.SmoothedLoss != last.Loss {
				t.Fatalf("after Stop: smoothed loss %v, last sample %v", st.SmoothedLoss, last.Loss)
			}
			eng.Stop()
			eng.Tick(n + 10)
			if again := eng.Stats(); !reflect.DeepEqual(again, st) {
				t.Fatalf("second Stop or a tick after Stop changed the stats:\n%+v\n%+v", st, again)
			}
			if got := len(eng.History()); got != len(hist) {
				t.Fatalf("a tick after Stop recorded telemetry: %d -> %d points", len(hist), got)
			}
		})
	}
}
