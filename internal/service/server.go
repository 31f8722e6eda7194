// Package service is the deterministic request-serving frontend: a
// request/reply channel protocol between an untrusted frontend and
// enclave-resident servers, plus the open-loop arrival machinery and the
// per-request latency recorder that turn the paper's closed batch loops
// into tail-latency experiments.
//
// # Channel model
//
// Clients reach a server over connections with bounded FIFO queues. Every
// frame (see Frame) carries a correlation id unique within its connection
// incarnation; replies are matched to requests by (connection, correlation)
// — never by ordering — so the protocol survives sheds and losses without
// ambiguity. The channel itself is untrusted: a fault.Plan rolls each
// delivery for corruption, truncation, loss or delay, exactly as the paging
// backends' plan does for blobs. A frame that fails its checksum, or a
// reply lost in transit, resets the whole connection: the incarnation
// counter bumps, queued frames of the old incarnation are discarded, and
// in-flight calls surface ErrConnReset. Replay rolls fizzle at this layer —
// correlation ids make duplicate frames inert — and delay rolls push a
// scheduled arrival (and, the channel being FIFO, everything behind it)
// later.
//
// # Dispatch
//
// The server's Loop runs as the enclave application body: it pumps due
// open-loop arrivals into the connection queues, serves frames in admission
// order, and records each successful reply's sojourn (reply cycle minus
// arrival cycle) as an exact sample in its histogram. When nothing is due
// it charges a poll and — when the Idle hook is wired to the machine
// scheduler — yields its slice, so co-resident tenants run instead of
// watching one enclave busy-wait. Every cycle on the hot path is charged
// explicitly to a category; all randomness comes
// from seeded sim.Rand and the stateless fault plan, so a serving run is
// byte-identical at any worker count.
package service

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/fault"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// Channel direction codes mixed into fault-plan rolls (distinct from the
// paging layer's evict/fetch codes, so sharing one plan keeps the decision
// streams independent).
const (
	dirRequest uint64 = 0x5e1
	dirReply   uint64 = 0x5e2
	dirDelay   uint64 = 0x5e3
)

// Options configures one server's channel behaviour.
type Options struct {
	// QueueCap bounds each connection's request queue; admission beyond it
	// is refused with ErrBackpressure. Default 64.
	QueueCap int
	// KeepAliveEvery injects a keep-alive frame on any connection idle for
	// this many cycles (0 disables keep-alives).
	KeepAliveEvery uint64
	// Deadline sheds a request whose sojourn exceeds this many cycles
	// before its handler runs; the client sees ErrTimeout (0 disables).
	Deadline uint64
	// CallTimeout bounds how long a blocking client call waits for its
	// reply before declaring the connection dead (a request lost in
	// transit produces no reply at all — without this bound the caller
	// would wait forever). Expiry aborts the connection: the client sees
	// ErrConnReset. Default 1<<22 cycles.
	CallTimeout uint64
	// HistMax bounds the latency histogram's exact range in cycles, at
	// most 1<<32; longer sojourns clamp to HistMax-1 and count as
	// saturated. Default 1<<22 (~4.2M cycles).
	HistMax uint64
	// ChannelFaults rolls every frame delivery for in-transit faults.
	// The zero plan is a perfect channel.
	ChannelFaults fault.Plan
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.HistMax == 0 {
		o.HistMax = 1 << 22
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 1 << 22
	}
	return o
}

// validate rejects malformed options.
func (o Options) validate() error {
	if o.QueueCap < 0 {
		return fmt.Errorf("service: QueueCap = %d, want >= 0", o.QueueCap)
	}
	return o.ChannelFaults.Validate()
}

// Stats is a server's traffic account. Offered = Admitted + Backpressure;
// every admitted request ends exactly one way: served, error reply,
// timeout shed, or dropped (lost in transit / discarded by a reset).
type Stats struct {
	Offered      uint64 // request admissions attempted
	Admitted     uint64 // requests accepted into a connection queue
	Served       uint64 // successful replies delivered intact
	Errors       uint64 // error replies delivered intact
	KeepAlives   uint64 // keep-alive round trips completed
	Backpressure uint64 // admissions refused on a full queue
	Timeouts     uint64 // requests shed past the deadline
	Resets       uint64 // connection resets
	Corrupt      uint64 // frames that failed their checksum in transit
	Dropped      uint64 // frames lost in transit or discarded on a reset
	IdlePolls    uint64 // loop polls that found nothing due
}

// Server dispatches frames for one enclave-resident process. Create with
// New, attach client connections with Dial, then either preload an
// open-loop schedule (Preload) or submit interactive traffic through the
// connections, and run Loop as the process's application body.
type Server struct {
	proc  *libos.Process
	clock *sim.Clock
	costs *sim.Costs
	meter *metrics.Metrics
	opts  Options
	plan  fault.Plan

	// Idle, when set, is invoked whenever the loop finds nothing due — the
	// facade wires it to the machine scheduler's Yield so an idle server
	// donates its slice instead of busy-polling.
	Idle func()

	conns []*Conn

	// fifo is the admission-order dispatch ring (frames of every
	// connection, already admitted against its bounded queue).
	fifo     []Frame
	fifoHead int
	fifoLen  int

	schedule []Frame // precomputed open-loop arrivals
	pos      int
	openLoop bool

	opNames  []string
	handlers []libos.Handler
	opIndex  map[string]uint8
	frozen   bool

	kaCursor int
	closed   bool
	// partUntil severs the untrusted channel while clock < partUntil:
	// requests vanish in transit and replies are lost (resetting their
	// connections), modelling a network partition between the frontend and
	// this server's machine (see Partition).
	partUntil uint64
	// draining pauses admission without closing: the loop serves what is
	// queued and returns, but the remaining schedule stays pending so a
	// Rebind onto a migrated incarnation can resume it (see Drain).
	draining bool
	scratch  [FrameBytes]byte
	hist     *metrics.Histogram
	stats    Stats
}

// Conn is one client connection: a bounded request queue plus the
// correlation state of its current incarnation.
type Conn struct {
	s   *Server
	id  uint32
	gen uint32 // incarnation; bumped on every reset

	n        int    // frames of the current incarnation queued
	nextCorr uint64 // next correlation id
	lastAct  uint64 // cycle of the last completed exchange

	await    uint64 // correlation id a blocking call waits on
	awaiting bool
	reply    Frame // mailbox for the awaited reply
	hasReply bool

	resets uint64
}

// New builds a server around a loaded process. Handlers must be registered
// (Process.Handle) before traffic flows; the operation table freezes at the
// first send, preload or dispatch.
func New(p *libos.Process, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &Server{
		proc:  p,
		clock: p.Kernel.Clock,
		costs: p.Kernel.Costs,
		meter: metrics.Of(p.Kernel.Clock),
		opts:  opts,
		plan:  opts.ChannelFaults,
		hist:  metrics.NewHistogram(opts.HistMax),
	}, nil
}

// Name returns the served application's image name.
func (s *Server) Name() string { return s.proc.Image.Name }

// Process returns the enclave process behind the server.
func (s *Server) Process() *libos.Process { return s.proc }

// Stats returns the server's traffic account so far.
func (s *Server) Stats() Stats { return s.stats }

// Check asserts the ledger the Stats comment states: every offered request
// was admitted or refused with backpressure, and every admitted one settled
// exactly one way. It holds once the server is idle — after Loop returns,
// or after a Crash has booked the unsettled remainder as dropped.
func (st Stats) Check() error {
	if st.Offered != st.Admitted+st.Backpressure {
		return fmt.Errorf("service: offered %d != admitted %d + backpressure %d",
			st.Offered, st.Admitted, st.Backpressure)
	}
	if settled := st.Served + st.Errors + st.Timeouts + st.Dropped; st.Admitted != settled {
		return fmt.Errorf("service: admitted %d != served %d + errors %d + timeouts %d + dropped %d",
			st.Admitted, st.Served, st.Errors, st.Timeouts, st.Dropped)
	}
	return nil
}

// Hist returns the per-request latency histogram (sojourn cycles of every
// successfully served request).
func (s *Server) Hist() *metrics.Histogram { return s.hist }

// Closed reports whether the server has stopped admitting traffic.
func (s *Server) Closed() bool { return s.closed }

// Close stops admission; the dispatch loop drains what is queued and
// returns.
func (s *Server) Close() { s.closed = true }

// Drain pauses the server for migration: no new arrival is admitted (due
// scheduled arrivals stay pending), no keep-alive is synthesized, and the
// dispatch loop returns once the already-admitted backlog is served — all
// WITHOUT closing the server. The host-side state (connections, histogram,
// remaining schedule) survives; Rebind attaches it to the adopted
// incarnation and admission resumes, with the arrivals that came due during
// the outage flooding in as the downtime burst a real migration causes.
func (s *Server) Drain() { s.draining = true }

// Draining reports whether a migration drain is in progress.
func (s *Server) Draining() bool { return s.draining }

// Partition severs the untrusted channel between the clients and this
// server until the given absolute cycle: requests vanish in transit and
// replies are lost (resetting their connections, so in-flight calls surface
// ErrConnReset), exactly as a fault-plan outage would — but driven by an
// external chaos schedule rather than per-frame rolls. Admission and the
// open-loop schedule keep running: a partition loses traffic, it does not
// pause it. A later Partition call with a smaller cycle heals early.
func (s *Server) Partition(until uint64) { s.partUntil = until }

// Partitioned reports whether the channel is severed at the given cycle.
func (s *Server) Partitioned(now uint64) bool { return now < s.partUntil }

// PendingSchedule reports how many preloaded open-loop arrivals have not yet
// been admitted — the traffic a tenant that never recovers from a crash
// would lose outright.
func (s *Server) PendingSchedule() int { return len(s.schedule) - s.pos }

// Crash models the host machine dying mid-run: every admitted-but-unserved
// request — queued on a connection, or already popped for dispatch inside
// the dead enclave — is accounted as dropped, every connection resets (a
// blocking call in flight observes ErrConnReset), and the server enters the
// draining state so a restored incarnation can Rebind. The pending open-loop
// schedule survives: arrivals that come due during the outage flood in after
// recovery rather than silently vanishing. Returns the number of admitted
// requests the crash lost.
func (s *Server) Crash() uint64 {
	st := &s.stats
	unsettled := func() uint64 {
		settled := st.Served + st.Errors + st.Timeouts + st.Dropped
		if st.Admitted > settled {
			return st.Admitted - settled
		}
		return 0
	}
	lost := unsettled() // queued + mid-dispatch at the instant of the crash
	for _, c := range s.conns {
		s.reset(c) // accounts the queued frames, bumps the incarnation
	}
	// Whatever the resets did not account — a request already popped for
	// dispatch when the machine died — is dropped too, so no admitted
	// request ever disappears from the books.
	if rem := unsettled(); rem > 0 {
		st.Dropped += rem
		s.meter.Add(metrics.CntServDrops, rem)
	}
	s.fifoHead, s.fifoLen = 0, 0
	s.draining = true
	return lost
}

// Rebind attaches the server's host-side state to a new process incarnation
// (the adopted enclave on the destination machine) and resumes admission.
// The operation table was frozen into every queued and scheduled frame as
// indexes, so the new incarnation must register the same handler names in
// the same order; anything else is a protocol error. Rebind assumes the
// destination machine shares the source's clock timeline (in a fleet, all
// machines run under one sim.Clock) — absolute arrival cycles keep their
// meaning across the move.
func (s *Server) Rebind(p *libos.Process) error {
	if !s.draining {
		return fmt.Errorf("service: %s rebind without drain", s.Name())
	}
	if s.frozen {
		names := p.HandlerNames()
		if len(names) != len(s.opNames) {
			return fmt.Errorf("service: %s rebind with %d handlers, frozen table has %d",
				s.Name(), len(names), len(s.opNames))
		}
		for i, name := range names {
			if name != s.opNames[i] {
				return fmt.Errorf("service: %s rebind handler %d is %q, frozen table has %q",
					s.Name(), i, name, s.opNames[i])
			}
			h, ok := p.Handler(name)
			if !ok {
				return fmt.Errorf("service: %s rebind: handler %q not registered", s.Name(), name)
			}
			s.handlers[i] = h
		}
	}
	s.proc = p
	s.clock = p.Kernel.Clock
	s.costs = p.Kernel.Costs
	s.meter = metrics.Of(p.Kernel.Clock)
	s.draining = false
	return nil
}

// Dial attaches a new client connection.
func (s *Server) Dial() (*Conn, error) {
	if s.closed {
		return nil, &Error{Server: s.Name(), Err: ErrClosed}
	}
	c := &Conn{s: s, id: uint32(len(s.conns))}
	s.conns = append(s.conns, c)
	return c, nil
}

// freezeOps resolves the process's registered handlers into the wire
// operation table. Called once, at the first traffic.
func (s *Server) freezeOps() error {
	if s.frozen {
		return nil
	}
	names := s.proc.HandlerNames()
	if len(names) > 256 {
		return fmt.Errorf("service: %d handlers registered, wire op is one byte", len(names))
	}
	s.opNames = names
	s.handlers = make([]libos.Handler, len(names))
	s.opIndex = make(map[string]uint8, len(names))
	for i, name := range names {
		h, _ := s.proc.Handler(name)
		s.handlers[i] = h
		s.opIndex[name] = uint8(i)
	}
	s.frozen = true
	return nil
}

// opName labels an operation index for error envelopes.
func (s *Server) opName(op uint8) string {
	if int(op) < len(s.opNames) {
		return s.opNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// Preload builds the open-loop arrival schedule: ol.Requests requests
// spread over the dialed connections, inter-arrival gaps drawn from
// ol.Arrivals, starting at the current cycle. The loop then auto-closes
// once the schedule is drained. Preload can be called once, before the
// loop runs.
func (s *Server) Preload(ol OpenLoop) error {
	if s.openLoop {
		return fmt.Errorf("service: %s already preloaded", s.Name())
	}
	if len(s.conns) == 0 {
		return fmt.Errorf("service: preload with no dialed connections")
	}
	if ol.Requests <= 0 || ol.Arrivals == nil {
		return fmt.Errorf("service: preload needs Requests > 0 and an arrival process")
	}
	if err := s.freezeOps(); err != nil {
		return err
	}
	if len(s.handlers) == 0 {
		return fmt.Errorf("service: preload with no registered handlers")
	}
	r := sim.NewRand(ol.Seed)
	s.schedule = make([]Frame, ol.Requests)
	// Each request yields at most one latency sample: reserve them now, so
	// recording never grows the histogram while the loop runs.
	s.hist.Grow(ol.Requests)
	at := s.clock.Cycles()
	for i := 0; i < ol.Requests; i++ {
		at += ol.Arrivals.NextGap(r)
		var op string
		var arg uint64
		if ol.NextReq != nil {
			op, arg = ol.NextReq(i, r)
		} else {
			op, arg = s.opNames[0], r.Uint64()
		}
		idx, ok := s.opIndex[op]
		if !ok {
			return &Error{Server: s.Name(), Op: op, Err: ErrUnknownOp}
		}
		c := s.conns[r.Uint64n(uint64(len(s.conns)))]
		corr := c.nextCorr
		c.nextCorr++
		arrive := at
		// A delay roll holds this frame (and, the channel being FIFO,
		// everything behind it) in transit for the plan's spike.
		if s.plan.Roll(dirDelay, at, uint64(c.id), corr) == fault.KindDelay {
			arrive += s.plan.DelayCycles
		}
		s.schedule[i] = Frame{
			Kind: FrameRequest, Op: idx, Conn: c.id, Corr: corr,
			Arg: arg, Arrive: arrive,
		}
	}
	s.openLoop = true
	return nil
}

// charge attributes service bookkeeping cycles.
func (s *Server) charge(n uint64) { s.clock.ChargeAs(sim.CatCompute, n) }

// push appends a frame to the dispatch ring, growing it when full.
func (s *Server) push(f Frame) {
	if s.fifoLen == len(s.fifo) {
		grown := make([]Frame, max(16, 2*len(s.fifo)))
		for i := 0; i < s.fifoLen; i++ {
			grown[i] = s.fifo[(s.fifoHead+i)%len(s.fifo)]
		}
		s.fifo = grown
		s.fifoHead = 0
	}
	s.fifo[(s.fifoHead+s.fifoLen)%len(s.fifo)] = f
	s.fifoLen++
}

// pop removes the next live frame in admission order, skipping frames of
// reset incarnations (their queue slots were already released).
func (s *Server) pop() (Frame, bool) {
	for s.fifoLen > 0 {
		f := s.fifo[s.fifoHead]
		s.fifoHead = (s.fifoHead + 1) % len(s.fifo)
		s.fifoLen--
		c := s.conns[f.Conn]
		if f.Gen != c.gen {
			continue // discarded by a reset; drop already accounted
		}
		c.n--
		return f, true
	}
	return Frame{}, false
}

// admit applies backpressure and queues one frame. Keep-alive frames skip
// silently when the queue is full (a probe that cannot even be queued says
// nothing the full queue does not).
func (s *Server) admit(f Frame) error {
	c := s.conns[f.Conn]
	if f.Kind == FrameRequest {
		s.stats.Offered++
	}
	if s.closed {
		return &Error{Server: s.Name(), Conn: c.id, Err: ErrClosed}
	}
	if c.n >= s.opts.QueueCap {
		if f.Kind == FrameKeepAlive {
			return nil
		}
		s.stats.Backpressure++
		s.meter.Inc(metrics.CntServBackpressure)
		return &Error{Server: s.Name(), Conn: c.id, Corr: f.Corr, Op: s.opName(f.Op), Err: ErrBackpressure}
	}
	f.Gen = c.gen
	c.n++
	s.push(f)
	if f.Kind == FrameRequest {
		s.stats.Admitted++
		s.meter.Inc(metrics.CntServRequests)
	}
	return nil
}

// pump admits every due scheduled arrival and synthesizes keep-alives on
// idle connections (a rotating cursor checks a few connections per pump,
// so the sweep is O(1) amortized and deterministic).
func (s *Server) pump() {
	if s.draining {
		return // migration drain: nothing new is admitted, nothing probed
	}
	now := s.clock.Cycles()
	for s.pos < len(s.schedule) && s.schedule[s.pos].Arrive <= now {
		f := s.schedule[s.pos]
		s.pos++
		_ = s.admit(f) // backpressure on an open-loop arrival = counted drop
	}
	if s.opts.KeepAliveEvery == 0 || s.closed || len(s.conns) == 0 {
		return
	}
	for i := 0; i < 4 && i < len(s.conns); i++ {
		c := s.conns[s.kaCursor%len(s.conns)]
		s.kaCursor++
		if c.n == 0 && now-c.lastAct >= s.opts.KeepAliveEvery {
			c.lastAct = now // re-arm the idle timer at the probe
			corr := c.nextCorr
			c.nextCorr++
			_ = s.admit(Frame{Kind: FrameKeepAlive, Conn: c.id, Corr: corr, Arrive: now})
		}
	}
}

// drained reports whether the loop has nothing left to do and never will:
// the ring is empty, no scheduled arrival remains, and either the server
// was closed or it is a pure open-loop server whose schedule is spent.
func (s *Server) drained() bool {
	if s.draining {
		return s.fifoLen == 0 // backlog served; pending schedule survives
	}
	if s.fifoLen > 0 || s.pos < len(s.schedule) {
		return false
	}
	return s.closed || s.openLoop
}

// Loop is the dispatch loop, run as the enclave application body. It
// returns when the server is drained (see drained); until then it serves
// admitted frames in order and yields (or polls) when nothing is due.
func (s *Server) Loop(ctx *core.Context) {
	if err := s.freezeOps(); err != nil {
		panic(err)
	}
	for {
		s.pump()
		f, ok := s.pop()
		if !ok {
			if s.drained() {
				if !s.draining {
					s.closed = true
				}
				return
			}
			s.stats.IdlePolls++
			s.meter.Inc(metrics.CntServIdlePolls)
			s.charge(s.costs.ServPoll)
			if s.Idle != nil {
				s.Idle()
			}
			continue
		}
		s.serve(ctx, f)
	}
}

// corruptByte picks the deterministic in-flight byte flip position.
func corruptByte(f *Frame, cycle uint64) int {
	return int((f.Corr ^ cycle) % FrameBytes)
}

// serve carries one frame across the untrusted channel, runs its handler,
// and delivers the reply.
func (s *Server) serve(ctx *core.Context, f Frame) {
	c := s.conns[f.Conn]
	s.charge(s.costs.ServDispatch)

	// The request crosses the wire here: roll the channel fault, and only
	// when it mangles bytes pay for the encode/checksum/decode round-trip —
	// a pristine frame decodes to exactly its wire view.
	s.charge(s.costs.ServFrame)
	now := s.clock.Cycles()
	if now < s.partUntil {
		// Severed channel: the request vanishes in transit.
		s.stats.Dropped++
		s.meter.Inc(metrics.CntServDrops)
		return
	}
	var wf Frame
	switch s.plan.Roll(dirRequest, now, uint64(c.id), f.Corr) {
	case fault.KindCorrupt, fault.KindTruncate:
		f.EncodeTo(s.scratch[:])
		s.scratch[corruptByte(&f, now)] ^= 0xff
		var err error
		wf, err = DecodeFrame(s.scratch[:])
		if err != nil {
			s.stats.Corrupt++
			s.meter.Inc(metrics.CntServCorrupt)
			s.reset(c)
			return
		}
	case fault.KindUnavail:
		// Lost in transit: the request simply never arrives.
		s.stats.Dropped++
		s.meter.Inc(metrics.CntServDrops)
		return
	default:
		wf = f.wire()
	}

	if wf.Kind == FrameKeepAlive {
		s.deliver(c, Frame{Kind: FrameKeepAlive, Conn: c.id, Gen: f.Gen, Corr: wf.Corr, Arrive: f.Arrive})
		return
	}

	if s.opts.Deadline > 0 && now-f.Arrive > s.opts.Deadline {
		s.stats.Timeouts++
		s.meter.Inc(metrics.CntServTimeouts)
		s.deliver(c, Frame{Kind: FrameReply, ErrCode: wireTimeout, Conn: c.id, Gen: f.Gen, Corr: wf.Corr, Arrive: f.Arrive})
		return
	}

	var reply Frame
	if int(wf.Op) >= len(s.handlers) {
		reply = Frame{Kind: FrameReply, ErrCode: wireUnknownOp}
	} else {
		ret, herr := s.handlers[wf.Op](ctx, wf.Arg)
		reply = Frame{Kind: FrameReply, ErrCode: encodeErr(herr), Arg: ret}
	}
	reply.Conn, reply.Gen, reply.Corr, reply.Arrive = c.id, f.Gen, wf.Corr, f.Arrive
	s.deliver(c, reply)
}

// deliver carries a reply (or keep-alive echo) back across the channel. A
// corrupted or lost reply resets the connection: the client cannot tell a
// lost reply from a dead server, and its correlation state is no longer
// trustworthy either way.
func (s *Server) deliver(c *Conn, f Frame) {
	s.charge(s.costs.ServFrame)
	now := s.clock.Cycles()
	if now < s.partUntil {
		// Severed channel: the reply is lost, and the client — unable to
		// tell a lost reply from a dead server — tears the connection down.
		s.stats.Dropped++
		s.meter.Inc(metrics.CntServDrops)
		s.reset(c)
		return
	}
	var wf Frame
	switch s.plan.Roll(dirReply, now, uint64(c.id), f.Corr) {
	case fault.KindCorrupt, fault.KindTruncate:
		f.EncodeTo(s.scratch[:])
		s.scratch[corruptByte(&f, now)] ^= 0xff
		var err error
		wf, err = DecodeFrame(s.scratch[:])
		if err != nil {
			s.stats.Corrupt++
			s.meter.Inc(metrics.CntServCorrupt)
			s.reset(c)
			return
		}
	case fault.KindUnavail:
		s.stats.Dropped++
		s.meter.Inc(metrics.CntServDrops)
		s.reset(c)
		return
	default:
		wf = f.wire()
	}
	if f.Gen != c.gen {
		return // connection reset while the reply was in flight
	}
	c.lastAct = now
	switch wf.Kind {
	case FrameKeepAlive:
		s.stats.KeepAlives++
		s.meter.Inc(metrics.CntServKeepAlives)
		return
	case FrameReply:
		if wf.ErrCode == wireOK {
			s.hist.Record(now - f.Arrive)
			s.stats.Served++
			s.meter.Inc(metrics.CntServReplies)
		} else {
			s.stats.Errors++
		}
		if c.awaiting && c.await == wf.Corr {
			c.reply = wf
			c.hasReply = true
			c.awaiting = false
		}
	}
}

// reset tears down a connection incarnation: queued frames are discarded
// (their slots released), the incarnation counter bumps, and any blocking
// call observes the bump as ErrConnReset.
func (s *Server) reset(c *Conn) {
	dropped := uint64(c.n)
	c.n = 0
	c.gen++
	c.resets++
	c.awaiting = false
	c.hasReply = false
	c.lastAct = s.clock.Cycles()
	s.stats.Resets++
	s.meter.Inc(metrics.CntServResets)
	s.stats.Dropped += dropped
	s.meter.Add(metrics.CntServDrops, dropped)
}

// ID returns the connection's id.
func (c *Conn) ID() uint32 { return c.id }

// Gen returns the connection's incarnation counter; a change between
// submit and reply means the connection was reset in between.
func (c *Conn) Gen() uint32 { return c.gen }

// Resets reports how many times the connection was reset.
func (c *Conn) Resets() uint64 { return c.resets }

// Abort is the client-initiated reset: a caller that gave up on the
// connection (e.g. a call timeout) tears it down exactly as a corrupted
// frame would, discarding its queued requests.
func (c *Conn) Abort() { c.s.reset(c) }

// Options returns the server's effective options.
func (s *Server) Options() Options { return s.opts }

// Send enqueues a fire-and-forget request. The reply (if any) updates the
// server's statistics but is not delivered anywhere.
func (c *Conn) Send(op string, arg uint64) error {
	_, _, err := c.enqueue(op, arg)
	return err
}

// Submit enqueues a request and arms the connection's reply mailbox: the
// correlated reply (once the dispatch loop serves it) lands in TakeReply.
// One call may be outstanding per connection.
func (c *Conn) Submit(op string, arg uint64) (corr uint64, gen uint32, err error) {
	corr, gen, err = c.enqueue(op, arg)
	if err == nil {
		c.await = corr
		c.awaiting = true
		c.hasReply = false
	}
	return corr, gen, err
}

// Ready reports whether the awaited reply for corr has landed in the
// mailbox (a cheap peek for blocking callers driving the scheduler).
func (c *Conn) Ready(corr uint64) bool { return c.hasReply && c.reply.Corr == corr }

// TakeReply collects the awaited reply, clearing the mailbox.
func (c *Conn) TakeReply(corr uint64) (Frame, bool) {
	if !c.hasReply || c.reply.Corr != corr {
		return Frame{}, false
	}
	c.hasReply = false
	return c.reply, true
}

// enqueue is the client-side admission path: resolve the operation, charge
// the frame encode, and admit against the bounded queue.
func (c *Conn) enqueue(op string, arg uint64) (uint64, uint32, error) {
	s := c.s
	if err := s.freezeOps(); err != nil {
		return 0, c.gen, err
	}
	idx, ok := s.opIndex[op]
	if !ok {
		return 0, c.gen, &Error{Server: s.Name(), Conn: c.id, Op: op, Err: ErrUnknownOp}
	}
	s.charge(s.costs.ServFrame)
	corr := c.nextCorr
	c.nextCorr++
	f := Frame{Kind: FrameRequest, Op: idx, Conn: c.id, Corr: corr, Arg: arg, Arrive: s.clock.Cycles()}
	if err := s.admit(f); err != nil {
		return corr, c.gen, err
	}
	return corr, c.gen, nil
}

// max is a tiny helper (the module predates the builtin).
func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
