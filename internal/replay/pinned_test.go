package replay

import (
	"errors"
	"math/rand"
	"testing"
)

// TestSampleBounds: the bounds run from the first tick with a full
// observation stack behind it through the last tick with a successor,
// and report !ok until the DB can yield a transition.
func TestSampleBounds(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 2, StackTicks: 3})
	if _, _, ok := db.SampleBounds(); ok {
		t.Fatal("empty DB reported sample bounds")
	}
	fill(t, db, 10, 11)
	if _, _, ok := db.SampleBounds(); ok {
		t.Fatal("two frames cannot stack three ticks, yet bounds were reported")
	}
	fill(t, db, 12, 40)
	lo, hi, ok := db.SampleBounds()
	if !ok || lo != 12 || hi != 39 {
		t.Fatalf("bounds = [%d, %d] ok=%v, want [12, 39]", lo, hi, ok)
	}
}

// TestConstructMinibatchPinnedInto is the pinned-draw contract the
// pipelined engine's determinism rests on: a batch assembled after the
// ring has advanced still draws every transition from the [lo, hi]
// window captured earlier, and is the same batch the same rng stream
// draws from a DB frozen at capture time.
func TestConstructMinibatchPinnedInto(t *testing.T) {
	cfg := Config{FrameWidth: 2, StackTicks: 2}
	frozen, live := mustDB(t, cfg), mustDB(t, cfg)
	fill(t, frozen, 1, 50)
	fill(t, live, 1, 50)
	lo, hi, ok := live.SampleBounds()
	if !ok {
		t.Fatal("no bounds")
	}
	fill(t, live, 51, 400) // later PutFrames move the live bounds
	if _, liveHi, _ := live.SampleBounds(); liveHi <= hi {
		t.Fatalf("live bounds did not advance: hi %d", liveHi)
	}

	var got, want Batch[float32]
	if err := ConstructMinibatchPinnedInto(live, rand.New(rand.NewSource(3)), 64, diffReward, &got, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := ConstructMinibatchInto(frozen, rand.New(rand.NewSource(3)), 64, diffReward, &want); err != nil {
		t.Fatal(err)
	}
	w := got.Width
	for i := 0; i < got.N; i++ {
		// fill stores tick×10 in column 0; the newest stacked frame is
		// the transition's tick.
		tick := int64(got.States[i*w+cfg.FrameWidth]) / 10
		if tick < lo || tick > hi {
			t.Fatalf("transition %d drawn at tick %d outside pinned [%d, %d]", i, tick, lo, hi)
		}
		if next := int64(got.NextStates[i*w+cfg.FrameWidth]) / 10; next != tick+1 {
			t.Fatalf("transition %d: next state at tick %d, want %d", i, next, tick+1)
		}
	}
	for i := range want.States {
		if got.States[i] != want.States[i] || got.NextStates[i] != want.NextStates[i] {
			t.Fatalf("pinned draw differs from the frozen-DB draw at value %d", i)
		}
	}
	for i := range want.Actions {
		if got.Actions[i] != want.Actions[i] || got.Rewards[i] != want.Rewards[i] {
			t.Fatalf("pinned draw differs from the frozen-DB draw at transition %d", i)
		}
	}
}

// TestConstructMinibatchPinnedEvicted: pinned ticks that have since
// left the retention window are redrawn, and a window evicted entirely
// yields ErrInsufficientData rather than transitions from outside it.
func TestConstructMinibatchPinnedEvicted(t *testing.T) {
	db := mustDB(t, Config{FrameWidth: 2, StackTicks: 2, Capacity: 32})
	fill(t, db, 1, 20)
	lo, hi, _ := db.SampleBounds()
	fill(t, db, 21, 200)
	var b Batch[float64]
	err := ConstructMinibatchPinnedInto(db, rand.New(rand.NewSource(1)), 4, diffReward, &b, lo, hi)
	if !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("draw from an evicted window: err = %v, want ErrInsufficientData", err)
	}
	if err := ConstructMinibatchPinnedInto(db, rand.New(rand.NewSource(1)), 4, diffReward, &b, 5, 4); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("inverted bounds: err = %v, want ErrInsufficientData", err)
	}
}
