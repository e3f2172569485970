// Package agent implements the distributed deployment of Figure 1: the
// Interface Daemon (a TCP server that receives performance indicators
// from Monitoring Agents, reassembles cluster-wide frames, and broadcasts
// actions) and the node-side Monitoring/Control Agent client. The
// in-process experiments do not need these; they exist so the system can
// be deployed as separate processes (cmd/capesd, cmd/capes-agent,
// cmd/capes-sim) exactly as the paper describes.
//
// The transport is fault-tolerant: agents reconnect automatically with
// exponential backoff, every (re)connection carries a session epoch so
// differential encoder/decoder state can never straddle a reconnect,
// heartbeats plus per-connection read deadlines let the daemon evict
// dead peers, and ticks whose frames stay incomplete past a deadline
// are gap-filled from the latest known values or dropped — all of it
// counted in TransportStats.
package agent

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"capes/internal/wire"
)

// FrameSink receives reassembled cluster frames: the concatenated PI
// vectors of all nodes for one sampling tick.
type FrameSink func(tick int64, frame []float64)

// DaemonOpts tunes the daemon's fault-tolerance behavior. The zero
// value means "use the default" for every field.
type DaemonOpts struct {
	// LivenessTimeout is the per-connection read deadline: a connection
	// that stays silent (no indicators, no heartbeats) this long is
	// evicted. Negative disables eviction. Default 30s.
	LivenessTimeout time.Duration
	// PartialFrameTimeout bounds how long an incomplete tick may wait
	// for stragglers before it is gap-filled or dropped. Negative
	// disables the sweeper (the MaxPendingTicks bound still applies).
	// Default 10s.
	PartialFrameTimeout time.Duration
	// SweepInterval is how often the partial-frame sweeper runs.
	// Default PartialFrameTimeout/4, clamped to [10ms, 1s].
	SweepInterval time.Duration
	// MaxPendingTicks bounds the incomplete-tick assembly map: when a
	// new tick would exceed it, the oldest pending tick is resolved
	// (gap-filled or dropped) immediately. Default 256.
	MaxPendingTicks int
	// DropIncomplete disables gap-filling: expired partial frames are
	// dropped (and counted) instead of being completed from each
	// missing node's latest known vector.
	DropIncomplete bool
	// BroadcastTimeout bounds one action write to a control agent.
	// Default 10s.
	BroadcastTimeout time.Duration
}

func (o DaemonOpts) withDefaults() DaemonOpts {
	if o.LivenessTimeout == 0 {
		o.LivenessTimeout = 30 * time.Second
	}
	if o.PartialFrameTimeout == 0 {
		o.PartialFrameTimeout = 10 * time.Second
	}
	if o.SweepInterval == 0 {
		o.SweepInterval = o.PartialFrameTimeout / 4
		if o.SweepInterval < 10*time.Millisecond {
			o.SweepInterval = 10 * time.Millisecond
		}
		if o.SweepInterval > time.Second {
			o.SweepInterval = time.Second
		}
	}
	if o.MaxPendingTicks == 0 {
		o.MaxPendingTicks = 256
	}
	if o.BroadcastTimeout == 0 {
		o.BroadcastTimeout = 10 * time.Second
	}
	return o
}

// TransportStats counts the daemon's transport-level events. Invariant
// (checked by the chaos harness): TicksStarted == CompleteFrames +
// PartialFrames + DroppedTicks + PendingTicks, and ActionsAttempted ==
// ActionsSent + DroppedActions — every tick and action is accounted
// for, none lost silently.
type TransportStats struct {
	Hellos           int64 `json:"hellos"`            // successful registrations
	Reconnects       int64 `json:"reconnects"`        // re-registrations of an already-seen node
	Evictions        int64 `json:"evictions"`         // connections dropped by the liveness deadline
	Heartbeats       int64 `json:"heartbeats"`        // heartbeat messages received
	StaleIndicators  int64 `json:"stale_indicators"`  // indicators dropped for an old epoch
	TicksStarted     int64 `json:"ticks_started"`     // ticks that began frame assembly
	CompleteFrames   int64 `json:"complete_frames"`   // frames emitted with every node reporting
	PartialFrames    int64 `json:"partial_frames"`    // frames emitted after gap-filling
	GapFilledSlots   int64 `json:"gap_filled_slots"`  // node slots filled from latest across all partial frames
	DroppedTicks     int64 `json:"dropped_ticks"`     // ticks abandoned (no emission)
	ActionsAttempted int64 `json:"actions_attempted"` // control-agent action writes attempted
	ActionsSent      int64 `json:"actions_sent"`      // action writes that succeeded
	DroppedActions   int64 `json:"dropped_actions"`   // action writes that failed or deadlined
	PendingTicks     int   `json:"pending_ticks"`     // gauge: ticks currently mid-assembly
}

// pendingTick tracks one tick's frame assembly.
type pendingTick struct {
	nodes   map[int]bool
	firstAt time.Time
}

// Daemon is the Interface Daemon: the single writer in front of the
// Replay DB and the broadcast point for actions (§3.3).
type Daemon struct {
	ln         net.Listener
	nodes      int
	pisPerNode int
	onFrame    FrameSink
	onChange   func(tick int64, name string)
	opts       DaemonOpts

	mu       sync.Mutex
	decoders map[int]*wire.DiffDecoder
	epochs   map[int]uint64    // current session epoch per node
	owners   map[int]net.Conn  // the connection that most recently registered each node
	latest   map[int][]float64 // most recent full PI vector per node
	seen     map[int64]*pendingTick
	controls map[int]*controlConn  // control-agent connections by node
	conns    map[net.Conn]struct{} // every live connection (monitor + control)
	stats    TransportStats
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

// controlConn is a registered control agent's connection. wmu
// serializes every write on it: the registration Ack is written under
// the lock taken before the conn is registered, so no broadcast action
// can reach the agent ahead of its Ack or interleave with it.
type controlConn struct {
	net.Conn
	wmu sync.Mutex
}

// NewDaemonOpts starts an Interface Daemon listening on addr (use
// "127.0.0.1:0" for tests). The zero DaemonOpts selects the default
// fault-tolerance options; onChange may be nil.
func NewDaemonOpts(addr string, nodes, pisPerNode int, onFrame FrameSink, onChange func(int64, string), opts DaemonOpts) (*Daemon, error) {
	if nodes <= 0 || pisPerNode <= 0 {
		return nil, fmt.Errorf("agent: nodes and pisPerNode must be positive")
	}
	if onFrame == nil {
		return nil, fmt.Errorf("agent: onFrame sink is required")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		ln:         ln,
		nodes:      nodes,
		pisPerNode: pisPerNode,
		onFrame:    onFrame,
		onChange:   onChange,
		opts:       opts.withDefaults(),
		decoders:   make(map[int]*wire.DiffDecoder),
		epochs:     make(map[int]uint64),
		owners:     make(map[int]net.Conn),
		latest:     make(map[int][]float64),
		seen:       make(map[int64]*pendingTick),
		controls:   make(map[int]*controlConn),
		conns:      make(map[net.Conn]struct{}),
		done:       make(chan struct{}),
	}
	d.wg.Add(1)
	go d.acceptLoop()
	if d.opts.PartialFrameTimeout > 0 {
		d.wg.Add(1)
		go d.sweepLoop()
	}
	return d, nil
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// TransportStats snapshots the transport counters.
func (d *Daemon) TransportStats() TransportStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.PendingTicks = len(d.seen)
	return st
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go d.serveConn(conn)
	}
}

// setReadDeadline arms the liveness deadline on conn (no-op when
// eviction is disabled).
func (d *Daemon) setReadDeadline(conn net.Conn) {
	if d.opts.LivenessTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(d.opts.LivenessTimeout))
	}
}

func (d *Daemon) serveConn(conn net.Conn) {
	defer d.wg.Done()
	defer conn.Close()
	// Register so Close can terminate this connection even if it is a
	// monitor blocked in ReadMsg (control conns alone are not enough —
	// an unclosed monitor would hang Close in wg.Wait forever).
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.conns[conn] = struct{}{}
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	// First message must be Hello — under the same liveness deadline,
	// so a connection that never registers cannot pin a goroutine.
	d.setReadDeadline(conn)
	env, err := wire.ReadMsg(conn)
	if err != nil || env.Type != wire.MsgHello || env.Hello == nil {
		if isTimeout(err) {
			d.mu.Lock()
			d.stats.Evictions++
			d.mu.Unlock()
		}
		return
	}
	h := env.Hello
	if h.NumPIs != d.pisPerNode || h.NodeID < 0 || h.NodeID >= d.nodes {
		wire.WriteMsg(conn, &wire.Envelope{Type: wire.MsgAck, Ack: &wire.Ack{
			NodeID: h.NodeID, OK: false,
			Error: fmt.Sprintf("bad registration: node %d, %d PIs", h.NodeID, h.NumPIs),
		}})
		return
	}
	d.mu.Lock()
	if h.Epoch < d.epochs[h.NodeID] {
		// A delayed Hello from an older session than the one already
		// registered: accepting it would let a zombie connection feed
		// differential state into current frames.
		d.mu.Unlock()
		wire.WriteMsg(conn, &wire.Envelope{Type: wire.MsgAck, Ack: &wire.Ack{
			NodeID: h.NodeID, OK: false,
			Error: fmt.Sprintf("stale epoch %d for node %d", h.Epoch, h.NodeID),
		}})
		return
	}
	// Fresh session: swap in a clean DiffDecoder keyed by the new epoch.
	// The agent resets its DiffEncoder on reconnect and re-sends the
	// full vector, so decoder state never straddles connections.
	_, seenBefore := d.epochs[h.NodeID]
	d.epochs[h.NodeID] = h.Epoch
	d.owners[h.NodeID] = conn
	d.decoders[h.NodeID] = wire.NewDiffDecoder(d.pisPerNode)
	var cc *controlConn
	if h.Role == "control" || h.Role == "monitor+control" {
		// Registered with its write lock held until the Ack is out, so
		// the agent is registered when Dial returns and a concurrent
		// broadcast queues behind the Ack instead of overtaking it.
		cc = &controlConn{Conn: conn}
		cc.wmu.Lock()
		d.controls[h.NodeID] = cc
	}
	d.stats.Hellos++
	if seenBefore {
		d.stats.Reconnects++
	}
	d.mu.Unlock()
	wire.WriteMsg(conn, &wire.Envelope{Type: wire.MsgAck, Ack: &wire.Ack{NodeID: h.NodeID, OK: true}})
	if cc != nil {
		cc.wmu.Unlock()
	}

	for {
		d.setReadDeadline(conn)
		env, err := wire.ReadMsg(conn)
		if err != nil {
			d.mu.Lock()
			if isTimeout(err) && !d.closed {
				d.stats.Evictions++
			}
			if cc != nil && d.controls[h.NodeID] == cc {
				delete(d.controls, h.NodeID)
			}
			d.mu.Unlock()
			return
		}
		switch env.Type {
		case wire.MsgIndicators:
			d.handleIndicators(env.Indicators, conn)
		case wire.MsgHeartbeat:
			// The read above already refreshed the deadline; just count.
			d.mu.Lock()
			d.stats.Heartbeats++
			d.mu.Unlock()
		case wire.MsgWorkloadChange:
			if d.onChange != nil && env.WorkloadChange != nil {
				d.onChange(env.WorkloadChange.Tick, env.WorkloadChange.Name)
			}
		}
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// emission is a frame resolved under the lock, emitted outside it.
type emission struct {
	tick  int64
	frame []float64
}

func (d *Daemon) handleIndicators(msg *wire.Indicators, from net.Conn) {
	if msg == nil {
		return
	}
	var out []emission
	d.mu.Lock()
	if msg.NodeID < 0 || msg.NodeID >= d.nodes {
		d.mu.Unlock()
		return
	}
	if msg.Epoch != d.epochs[msg.NodeID] || d.owners[msg.NodeID] != from {
		// Differential state from a previous connection of this node
		// (old epoch), or from a conn that lost the node registration
		// to a newer one — applying either to the fresh decoder would
		// silently desync the reconstructed vectors.
		d.stats.StaleIndicators++
		d.mu.Unlock()
		return
	}
	dec := d.decoders[msg.NodeID]
	if dec == nil {
		d.mu.Unlock()
		return
	}
	full, err := dec.Apply(msg)
	if err != nil {
		d.mu.Unlock()
		return
	}
	d.latest[msg.NodeID] = full
	p := d.seen[msg.Tick]
	if p == nil {
		p = &pendingTick{nodes: make(map[int]bool), firstAt: time.Now()}
		d.seen[msg.Tick] = p
		d.stats.TicksStarted++
		// Bound the assembly map: a node that died mid-tick must not
		// leak its incomplete ticks forever. Resolve the oldest pending
		// tick now (gap-fill or drop) when over budget.
		if len(d.seen) > d.opts.MaxPendingTicks {
			oldest := int64(1<<63 - 1)
			for t := range d.seen {
				if t < oldest {
					oldest = t
				}
			}
			if frame, ok := d.resolveLocked(oldest); ok {
				out = append(out, emission{oldest, frame})
			}
		}
	}
	p.nodes[msg.NodeID] = true
	if len(p.nodes) == d.nodes {
		delete(d.seen, msg.Tick)
		d.stats.CompleteFrames++
		out = append(out, emission{msg.Tick, d.buildFrameLocked()})
	}
	d.mu.Unlock()
	for _, e := range out {
		d.onFrame(e.tick, e.frame)
	}
}

// buildFrameLocked concatenates every node's latest full vector.
func (d *Daemon) buildFrameLocked() []float64 {
	frame := make([]float64, d.nodes*d.pisPerNode)
	for n := 0; n < d.nodes; n++ {
		copy(frame[n*d.pisPerNode:(n+1)*d.pisPerNode], d.latest[n])
	}
	return frame
}

// resolveLocked finalizes an incomplete tick: gap-fill it from latest
// (every missing node must have reported at least once, ever) and
// return the frame to emit, or drop it with accounting. The tick is
// removed from the assembly map either way.
func (d *Daemon) resolveLocked(tick int64) ([]float64, bool) {
	p := d.seen[tick]
	if p == nil {
		return nil, false
	}
	delete(d.seen, tick)
	missing := 0
	fillable := !d.opts.DropIncomplete
	for n := 0; n < d.nodes; n++ {
		if !p.nodes[n] {
			missing++
			if d.latest[n] == nil {
				// Nothing ever received from this node: a gap-filled
				// slot would be fabricated, not stale. Drop instead.
				fillable = false
			}
		}
	}
	if !fillable {
		d.stats.DroppedTicks++
		return nil, false
	}
	d.stats.PartialFrames++
	d.stats.GapFilledSlots += int64(missing)
	return d.buildFrameLocked(), true
}

// sweepLoop periodically resolves ticks stuck past PartialFrameTimeout
// so the control loop keeps ticking when a node dies mid-frame.
func (d *Daemon) sweepLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-t.C:
			d.sweep(time.Now())
		}
	}
}

// sweep resolves every pending tick older than PartialFrameTimeout,
// emitting gap-filled frames in tick order.
func (d *Daemon) sweep(now time.Time) {
	d.mu.Lock()
	var expired []int64
	for tick, p := range d.seen {
		if now.Sub(p.firstAt) >= d.opts.PartialFrameTimeout {
			expired = append(expired, tick)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	var out []emission
	for _, tick := range expired {
		if frame, ok := d.resolveLocked(tick); ok {
			out = append(out, emission{tick, frame})
		}
	}
	d.mu.Unlock()
	for _, e := range out {
		d.onFrame(e.tick, e.frame)
	}
}

// BroadcastAction sends the parameter vector to every connected Control
// Agent. Returns the number of agents reached. The action is encoded
// once and the same frame is written to every agent, each write under
// that agent's write lock and a deadline, so one stalled agent (full
// TCP window, hung host) cannot wedge the broadcast path forever; a
// deadlined or failed write closes and deregisters that agent and the
// drop is counted.
func (d *Daemon) BroadcastAction(tick int64, id int, values []float64) int {
	type target struct {
		node int
		conn *controlConn
	}
	d.mu.Lock()
	targets := make([]target, 0, len(d.controls))
	for n, c := range d.controls {
		targets = append(targets, target{n, c})
	}
	d.stats.ActionsAttempted += int64(len(targets))
	d.mu.Unlock()
	if len(targets) == 0 {
		return 0
	}
	buf, err := wire.Encode(&wire.Envelope{Type: wire.MsgAction, Action: &wire.Action{
		Tick: tick, ID: id, Values: values,
	}})
	if err != nil {
		d.mu.Lock()
		d.stats.DroppedActions += int64(len(targets))
		d.mu.Unlock()
		return 0
	}
	sent := 0
	for _, tg := range targets {
		tg.conn.wmu.Lock()
		tg.conn.SetWriteDeadline(time.Now().Add(d.opts.BroadcastTimeout))
		_, err := tg.conn.Write(buf)
		tg.conn.wmu.Unlock()
		d.mu.Lock()
		if err == nil {
			d.stats.ActionsSent++
			d.mu.Unlock()
			sent++
			continue
		}
		d.stats.DroppedActions++
		// A failed (possibly partial) write leaves the length-framed
		// stream unrecoverable — deregister now and close so the agent
		// reconnects with a clean stream; serveConn cleans up the rest.
		if d.controls[tg.node] == tg.conn {
			delete(d.controls, tg.node)
		}
		d.mu.Unlock()
		tg.conn.Close()
	}
	return sent
}

// NumControlAgents returns how many control agents are registered.
func (d *Daemon) NumControlAgents() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.controls)
}

// Close stops the daemon and waits for connection goroutines to finish.
// Every live agent connection — monitor and control alike — is closed,
// so Close returns promptly even while agents are still streaming.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	close(d.done)
	err := d.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	d.wg.Wait()
	return err
}
