package agent

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capes/internal/faultnet"
)

// TestChaosSoak drives a full cluster — 4 node agents, each a
// monitor+control pair — through a seeded faultnet proxy that kills
// connections, stalls readers past the liveness deadline, adds latency,
// and one-way-partitions the action path. The test asserts the three
// properties the transport promises under fault:
//
//  1. No desync: every emitted frame segment decodes to one internally
//     consistent (tick, node, pi) triple — a differential decoder fed
//     diffs from the wrong epoch would corrupt this immediately.
//  2. Exact accounting: every tick the daemon started is a complete
//     frame, a gap-filled partial, a dropped tick, or still pending;
//     every action attempt was sent or dropped. Nothing leaks.
//  3. Liveness: the control loop keeps emitting frames through the
//     chaos (gap-fill from latest) — every tick some node delivered
//     reaches a frame, bar at most one per proxy kill — and reconnects
//     actually happened.
func TestChaosSoak(t *testing.T) {
	const (
		nodes  = 4
		numPIs = 4
	)
	totalTicks := int64(2000)
	if testing.Short() {
		totalTicks = 350
	}

	var (
		frameMu     sync.Mutex
		frameErr    string
		frames      int64
		lastTicks   = make([]int64, nodes)       // newest tick seen per node slot
		emittedTick = make([]bool, totalTicks+1) // ticks that reached a frame
	)
	frameCh := make(chan int64, 256)
	onFrame := func(tick int64, f []float64) {
		frameMu.Lock()
		defer frameMu.Unlock()
		frames++
		if tick >= 0 && tick <= totalTicks {
			emittedTick[tick] = true
		}
		// Each node's segment carries pis[j] = tick*10000 + node*100 + j.
		// Gap-filled slots may lag the frame tick but must never go
		// backwards, mix ticks within a segment, or exceed what was sent.
		for n := 0; n < nodes; n++ {
			seg := f[n*numPIs : (n+1)*numPIs]
			base := seg[0]
			for j, v := range seg {
				if v != base+float64(j) {
					frameErr = fmt.Sprintf("tick %d node %d: segment %v mixes ticks", tick, n, seg)
					return
				}
			}
			st := (base - float64(n*100)) / 10000
			if st != math.Trunc(st) || st < 1 || st > float64(totalTicks) {
				frameErr = fmt.Sprintf("tick %d node %d: segment %v decodes to bogus tick %v", tick, n, seg, st)
				return
			}
			if int64(st) < lastTicks[n] {
				frameErr = fmt.Sprintf("tick %d node %d: segment tick went backwards %d -> %v", tick, n, lastTicks[n], st)
				return
			}
			lastTicks[n] = int64(st)
		}
		select {
		case frameCh <- tick:
		default:
		}
	}

	d, err := NewDaemonOpts("127.0.0.1:0", nodes, numPIs, onFrame, nil, DaemonOpts{
		LivenessTimeout:     150 * time.Millisecond,
		PartialFrameTimeout: 60 * time.Millisecond,
		SweepInterval:       15 * time.Millisecond,
		MaxPendingTicks:     64,
		BroadcastTimeout:    500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	p, err := faultnet.New("127.0.0.1:0", d.Addr(), faultnet.Config{
		Seed:           20170614, // CAPES submission era; any seed replays
		KillAfterMin:   6 << 10,
		KillAfterMax:   20 << 10,
		StallEvery:     24 << 10,
		StallFor:       200 * time.Millisecond, // > liveness: forces eviction
		LatencyMax:     2 * time.Millisecond,
		PartitionProb:  0.3,
		PartitionAfter: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Broadcast an action for every emitted frame, decoupled from the
	// onFrame callback so a slow (stalled/partitioned) control conn
	// never blocks frame assembly.
	var bcastWG sync.WaitGroup
	bcastWG.Add(1)
	go func() {
		defer bcastWG.Done()
		for tick := range frameCh {
			d.BroadcastAction(tick, 0, []float64{float64(tick), 1})
		}
	}()

	var actionsSeen int64
	var agents []*NodeAgent
	var sendWG sync.WaitGroup
	var skipped int64
	// sentBy[tick] counts the nodes whose send of that tick succeeded:
	// the ticks the daemon could have assembled into a frame at all.
	sentBy := make([]int32, totalTicks+1)
	for n := 0; n < nodes; n++ {
		a, err := DialOpts(p.Addr(), n, numPIs, "monitor+control", Opts{
			BackoffMin:        5 * time.Millisecond,
			BackoffMax:        50 * time.Millisecond,
			DialTimeout:       2 * time.Second,
			WriteTimeout:      2 * time.Second,
			HeartbeatInterval: 40 * time.Millisecond,
			Seed:              int64(n) + 1,
		})
		if err != nil {
			t.Fatalf("node %d dial: %v", n, err)
		}
		agents = append(agents, a)
		go func(a *NodeAgent) {
			for range a.Actions() {
				atomic.AddInt64(&actionsSeen, 1)
			}
		}(a)
		sendWG.Add(1)
		go func(a *NodeAgent, node int) {
			defer sendWG.Done()
			vals := make([]float64, numPIs)
			for tick := int64(1); tick <= totalTicks; tick++ {
				for j := range vals {
					vals[j] = float64(tick)*10000 + float64(node)*100 + float64(j)
				}
				if err := a.SendIndicators(tick, vals); err != nil {
					// Reconnecting (or mid-failover): the tick is lost at
					// the source — the daemon gap-fills around it.
					atomic.AddInt64(&skipped, 1)
				} else {
					atomic.AddInt32(&sentBy[tick], 1)
				}
				time.Sleep(3 * time.Millisecond)
			}
		}(a, n)
	}

	sendWG.Wait()
	// Quiesce: let the sweeper resolve every pending tick, then close
	// the daemon. Close waits out every connection goroutine and the
	// sweeper, so no frame is emitted after it — a straggler still in
	// the proxy can neither race the frameCh close nor land between the
	// counter snapshot and the frame count. Then drain the broadcast
	// pipe so no action write is mid-flight when we snapshot.
	waitFor(t, func() bool { return d.TransportStats().PendingTicks == 0 }, "pending ticks drain")
	d.Close()
	close(frameCh)
	bcastWG.Wait()

	st := d.TransportStats()
	frameMu.Lock()
	if frameErr != "" {
		frameMu.Unlock()
		t.Fatal(frameErr)
	}
	emitted := frames
	frameMu.Unlock()

	// Exact accounting: nothing unexplained on either the tick or the
	// action path.
	if st.TicksStarted != st.CompleteFrames+st.PartialFrames+st.DroppedTicks+int64(st.PendingTicks) {
		t.Fatalf("tick accounting broken: %+v", st)
	}
	if st.ActionsAttempted != st.ActionsSent+st.DroppedActions {
		t.Fatalf("action accounting broken: %+v", st)
	}
	if emitted != st.CompleteFrames+st.PartialFrames {
		t.Fatalf("emitted %d frames but stats say %d complete + %d partial", emitted, st.CompleteFrames, st.PartialFrames)
	}

	// The chaos actually happened and the loop survived it.
	pst := p.Stats()
	if pst.Kills == 0 {
		t.Fatalf("faultnet injected no kills: %+v", pst)
	}
	if st.Reconnects == 0 {
		t.Fatalf("no reconnects observed: daemon %+v proxy %+v", st, pst)
	}
	var agentReconnects int64
	for _, a := range agents {
		agentReconnects += a.Reconnects()
		a.Close()
	}
	if agentReconnects == 0 {
		t.Fatal("no agent ever reconnected")
	}
	// Liveness, measured against what the agents delivered rather than
	// wall-clock ticks (a slow host skips more sends while reconnecting):
	// every tick at least one node sent must reach a frame, except ticks
	// swallowed in flight by a kill — at most one per kill.
	var sent, missing int64
	frameMu.Lock()
	for tick, n := range sentBy {
		if n > 0 {
			sent++
			if !emittedTick[tick] {
				missing++
			}
		}
	}
	frameMu.Unlock()
	if missing > pst.Kills {
		t.Fatalf("control loop starved: %d of %d sent ticks never reached a frame, more than the %d proxy kills "+
			"(%d frames emitted, stats %+v, proxy %+v, %d sends skipped)",
			missing, sent, pst.Kills, emitted, st, pst, atomic.LoadInt64(&skipped))
	}

	t.Logf("chaos soak: %d frames for %d sent ticks (%d missing; %d complete, %d partial, %d gap-filled slots, %d dropped ticks), "+
		"%d reconnects, %d evictions, %d stale drops, actions %d sent / %d dropped / %d seen by agents, "+
		"proxy: %d kills, %d stalls, %d partitions, %d sends skipped",
		emitted, sent, missing, st.CompleteFrames, st.PartialFrames, st.GapFilledSlots, st.DroppedTicks,
		st.Reconnects, st.Evictions, st.StaleIndicators,
		st.ActionsSent, st.DroppedActions, atomic.LoadInt64(&actionsSeen),
		pst.Kills, pst.Stalls, pst.Partitions, atomic.LoadInt64(&skipped))
}
