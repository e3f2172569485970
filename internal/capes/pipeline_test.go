package capes

import (
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"capes/internal/replay"
)

// tickFrame is the deterministic synthetic workload the pipeline tests
// feed both engines of a comparison: a pure function of the tick, so
// two engines given the same seed see byte-identical inputs.
func tickFrame(tick int64) replay.Frame {
	v := float64(tick%97) / 97
	return replay.Frame{math.Sin(v * 6), v, float64(tick % 5)}
}

// appliedAction is one ActionHook call.
type appliedAction struct {
	tick   int64
	action int
	values []float64
}

// runPipelined drives a fresh pipelined engine for n ticks and returns
// its full observable trajectory.
type trajectory struct {
	actions []int
	dist    []int64
	history []HistoryPoint
	applied []appliedAction
	current []float64
	stats   Stats
}

func runPipelined(t *testing.T, n int64) trajectory {
	t.Helper()
	cfg, _ := smallConfig(t, true, true)
	cfg.Pipeline = true
	cfg.HistoryEvery = 5
	var tick int64
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return tickFrame(tick), nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var tr trajectory
	eng.SetActionHook(func(tick int64, action int, values []float64) {
		tr.applied = append(tr.applied, appliedAction{tick, action, append([]float64(nil), values...)})
	})
	for tick = 1; tick <= n; tick++ {
		eng.Tick(tick)
		tr.actions = append(tr.actions, eng.LastAction())
	}
	eng.Stop() // quiesce so the final harvested counters are settled
	tr.dist = eng.ActionDistribution()
	tr.history = eng.History()
	tr.current = eng.CurrentValues()
	tr.stats = eng.Stats()
	return tr
}

// TestPipelinedDeterministicTrajectory: a pipelined run is a pure
// function of the seed — same seed, same synthetic workload, identical
// trajectory down to every action, applied value and telemetry sample
// (loss included), regardless of worker-goroutine timing.
func TestPipelinedDeterministicTrajectory(t *testing.T) {
	const n = 600
	a := runPipelined(t, n)
	b := runPipelined(t, n)

	if !reflect.DeepEqual(a.actions, b.actions) {
		for i := range a.actions {
			if a.actions[i] != b.actions[i] {
				t.Fatalf("action streams diverge at tick %d: %d vs %d", i+1, a.actions[i], b.actions[i])
			}
		}
	}
	if !reflect.DeepEqual(a.dist, b.dist) {
		t.Fatalf("action distributions differ: %v vs %v", a.dist, b.dist)
	}
	if !reflect.DeepEqual(a.history, b.history) {
		t.Fatal("telemetry histories differ")
	}
	if !reflect.DeepEqual(a.applied, b.applied) {
		t.Fatal("applied-action histories differ")
	}
	if !reflect.DeepEqual(a.current, b.current) {
		t.Fatalf("final parameter vectors differ: %v vs %v", a.current, b.current)
	}
	if a.stats != b.stats {
		t.Fatalf("stats differ:\n%+v\n%+v", a.stats, b.stats)
	}

	// The run must actually have exercised the pipeline, not fallen back
	// to in-line assembly throughout.
	if !a.stats.Pipelined {
		t.Fatal("Stats.Pipelined = false")
	}
	if a.stats.TrainSteps == 0 {
		t.Fatal("pipelined run never trained")
	}
	if a.stats.PrefetchedBatches == 0 {
		t.Fatalf("no train tick was served from a prefetch: %+v", a.stats)
	}
	// Steady state: after the cold-start miss every train tick should be
	// served from a completed prefetch (TrainEvery=1, join each tick).
	if a.stats.PrefetchMisses > 2 {
		t.Fatalf("too many prefetch misses: %+v", a.stats)
	}
	if last := a.history[len(a.history)-1]; last.TrainSteps == 0 || last.Loss <= 0 {
		t.Fatalf("pipelined run recorded no loss: %+v", last)
	}
	if len(a.applied) == 0 {
		t.Fatal("pipelined run applied no actions")
	}
}

// TestPipelinedStopIdempotent: Stop joins the workers and is safe to
// call repeatedly; ticks after Stop are no-ops.
func TestPipelinedStopIdempotent(t *testing.T) {
	cfg, _ := smallConfig(t, true, true)
	cfg.Pipeline = true
	var tick int64
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return tickFrame(tick), nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for tick = 1; tick <= 100; tick++ {
		eng.Tick(tick)
	}
	eng.Stop()
	eng.Stop()
	steps := eng.Stats().TrainSteps
	eng.Tick(101)
	if got := eng.Stats().TrainSteps; got != steps {
		t.Fatalf("tick after Stop trained: %d -> %d", steps, got)
	}
}

// TestPipelinedSaveRestore: checkpointing quiesces the pipeline, and a
// fresh pipelined engine restores the session and keeps training. The
// restored model must match the checkpointed one before any further
// training perturbs it.
func TestPipelinedSaveRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sess")
	cfg, _ := smallConfig(t, true, true)
	cfg.Pipeline = true
	var tick int64
	collector := func() (replay.Frame, error) { return tickFrame(tick), nil }
	controller := func([]float64) error { return nil }
	eng, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	for tick = 1; tick <= 300; tick++ {
		eng.Tick(tick)
	}
	if err := eng.SaveSession(dir); err != nil {
		t.Fatal(err)
	}
	savedSteps := eng.Stats().TrainSteps
	if savedSteps == 0 {
		t.Fatal("no training before checkpoint")
	}
	// The engine must keep running after the mid-flight checkpoint.
	for ; tick <= 350; tick++ {
		eng.Tick(tick)
	}
	eng.Stop()

	restored, err := NewEngine(cfg, collector, controller)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Stop()
	if err := restored.RestoreSession(dir); err != nil {
		t.Fatal(err)
	}
	st := restored.Stats()
	if !st.Pipelined {
		t.Fatal("restored engine lost its pipeline")
	}
	if st.TrainSteps != savedSteps {
		// Restore is step-exact: the manifest's TrainSteps counter comes
		// back so target-update phase and schedules resume in place.
		t.Fatalf("restored agent reports %d steps, want %d", st.TrainSteps, savedSteps)
	}
	for tick = 301; tick <= 600; tick++ {
		restored.Tick(tick)
	}
	restored.Stop()
	st = restored.Stats()
	if st.TrainSteps <= savedSteps {
		t.Fatal("restored pipelined engine never trained")
	}
	if st.TrainErrors != 0 {
		t.Fatalf("restored engine hit %d train errors", st.TrainErrors)
	}
}

// TestPipelinedConcurrentAccessSoak: one goroutine drives ticks while
// others hammer the read API, checkpoint mid-flight and toggle modes.
// Under -race this is the proof that the action path, the telemetry
// reads and the checkpointer never touch state the workers own.
func TestPipelinedConcurrentAccessSoak(t *testing.T) {
	const ticks = 1500
	dir := t.TempDir()
	cfg, _ := smallConfig(t, true, true)
	cfg.Pipeline = true
	cfg.HistoryEvery = 1
	var tick int64
	eng, err := NewEngine(cfg,
		func() (replay.Frame, error) { return tickFrame(tick), nil },
		func([]float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	// The helpers pace themselves so they contend with the tick loop
	// without starving it (each call serializes on the engine mutex; a
	// checkpoint additionally quiesces the pipeline).
	go func() { // telemetry poller
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(100 * time.Microsecond):
				_ = eng.Stats()
				_ = eng.History()
				_ = eng.ActionDistribution()
			}
		}
	}()
	go func() { // checkpointer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(5 * time.Millisecond):
				if err := eng.SaveSession(filepath.Join(dir, "ck")); err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
			}
		}
	}()
	go func() { // mode toggles
		defer wg.Done()
		on := false
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				eng.SetExploit(on)
				eng.NotifyWorkloadChange(500) // fixed tick: the loop counter belongs to the ticker
				on = !on
			}
		}
	}()
	for tick = 1; tick <= ticks; tick++ {
		eng.Tick(tick)
	}
	close(done)
	wg.Wait()
	eng.Stop()
	if st := eng.Stats(); st.TrainSteps == 0 || st.TrainErrors != 0 {
		t.Fatalf("soak ended unhealthy: %+v", st)
	}
}

// TestPipelinedMatchesSerialSchedule: pipelining changes which rng
// stream assembles batches, not the schedule — both modes train the
// same number of steps over the same tick range.
func TestPipelinedMatchesSerialSchedule(t *testing.T) {
	run := func(pipelined bool) Stats {
		cfg, _ := smallConfig(t, true, true)
		cfg.Pipeline = pipelined
		var tick int64
		eng, err := NewEngine(cfg,
			func() (replay.Frame, error) { return tickFrame(tick), nil },
			func([]float64) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for tick = 1; tick <= 400; tick++ {
			eng.Tick(tick)
		}
		eng.Stop()
		return eng.Stats()
	}
	serial := run(false)
	piped := run(true)
	if piped.TrainSteps != serial.TrainSteps {
		t.Fatalf("train schedules diverge: pipelined %d steps, serial %d", piped.TrainSteps, serial.TrainSteps)
	}
	if serial.Pipelined || !piped.Pipelined {
		t.Fatalf("Pipelined flags wrong: serial %+v piped %+v", serial, piped)
	}
}
