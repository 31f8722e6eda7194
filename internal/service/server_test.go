package service

import (
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/fault"
	"autarky/internal/hostos"
	"autarky/internal/libos"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// newTestProc wires a minimal machine and loads a pin-all enclave for
// channel-level tests (paging pressure is the experiments' business).
func newTestProc(t testing.TB) (*libos.Process, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	pt := mmu.NewPageTable(clock, &costs)
	tlb := mmu.NewTLB(64, 4, clock, &costs)
	epc := sgx.NewEPC(mmu.PFN(0x100000), 1<<12)
	reg := sgx.NewRegularMemory(mmu.PFN(1 << 40))
	cpu := sgx.NewCPU(clock, &costs, tlb, pt, epc, reg, []byte("service-test-root"))
	store := pagestore.NewStore()
	kernel := hostos.NewKernel(cpu, pt, store, clock, &costs)
	img := libos.AppImage{
		Name:      "svc",
		Libraries: []libos.Library{{Name: "libsvc.so", Pages: 2}},
		HeapPages: 16,
	}
	p, err := libos.Load(kernel, clock, &costs, img, libos.Config{
		SelfPaging: true, Policy: libos.PolicyPinAll,
	})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p, clock
}

// register installs an echo-style handler: touches one heap page, returns
// arg+1, and fails on a magic argument.
func register(p *libos.Process) {
	heap := p.Heap.PageVAs()
	p.Handle("echo", func(ctx *core.Context, arg uint64) (uint64, error) {
		ctx.Load(heap[arg%uint64(len(heap))])
		if arg == 0xBAD {
			return 0, errors.New("boom")
		}
		return arg + 1, nil
	})
}

func TestServeInteractiveAndMailbox(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, err := New(p, Options{})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	c, err := s.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	corr, gen, err := c.Submit("echo", 41)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := c.Send("echo", 0xBAD); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Send("nope", 1); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("unknown op: got %v", err)
	}
	s.Close()
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, ok := c.TakeReply(corr)
	if !ok {
		t.Fatalf("no reply for corr %d", corr)
	}
	if f.Arg != 42 || f.ErrCode != wireOK {
		t.Fatalf("reply = %+v, want Arg 42 ok", f)
	}
	if c.Gen() != gen {
		t.Fatalf("gen changed on a clean exchange")
	}
	st := s.Stats()
	if st.Served != 1 || st.Errors != 1 || st.Admitted != 2 {
		t.Fatalf("stats = %+v, want 1 served, 1 error, 2 admitted", st)
	}
	if s.Hist().Count() != 1 {
		t.Fatalf("hist count = %d, want 1 (error replies are not latency samples)", s.Hist().Count())
	}
}

func TestBackpressureBoundsQueue(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, _ := New(p, Options{QueueCap: 2})
	c, _ := s.Dial()
	if err := c.Send("echo", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("echo", 2); err != nil {
		t.Fatal(err)
	}
	err := c.Send("echo", 3)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("third send: got %v, want ErrBackpressure", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.Op != "echo" || se.Server != "svc" {
		t.Fatalf("envelope = %+v", err)
	}
	if s.Stats().Backpressure != 1 {
		t.Fatalf("backpressure count = %d", s.Stats().Backpressure)
	}
	s.Close()
	if err := p.Run(s.Loop); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Served != 2 {
		t.Fatalf("served = %d, want 2", s.Stats().Served)
	}
}

func TestOpenLoopPoissonServesSchedule(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, _ := New(p, Options{KeepAliveEvery: 40_000})
	for i := 0; i < 8; i++ {
		if _, err := s.Dial(); err != nil {
			t.Fatal(err)
		}
	}
	err := s.Preload(OpenLoop{Arrivals: Poisson{MeanGap: 30_000}, Requests: 500, Seed: 0xE14})
	if err != nil {
		t.Fatalf("preload: %v", err)
	}
	if err := p.Run(s.Loop); err != nil {
		t.Fatalf("run: %v", err)
	}
	st := s.Stats()
	if st.Offered != 500 {
		t.Fatalf("offered = %d, want 500", st.Offered)
	}
	if st.Served != st.Admitted {
		t.Fatalf("clean channel: served %d != admitted %d", st.Served, st.Admitted)
	}
	if st.KeepAlives == 0 {
		t.Fatalf("idle gaps at mean 30k cycles should trigger keep-alives")
	}
	if got := s.Hist().Count(); got != st.Served {
		t.Fatalf("hist count %d != served %d", got, st.Served)
	}
	if s.Hist().Percentile(0.5) == 0 {
		t.Fatalf("p50 of nonzero sojourns is zero")
	}
}

// TestFaultyChannelDeterministicAndNeverWedges is the satellite fault-plan
// test: dropped and corrupted frames must surface as connection resets on a
// deterministic schedule, and the dispatch loop must always drain and
// return — no fault pattern may wedge it.
func TestFaultyChannelDeterministicAndNeverWedges(t *testing.T) {
	run := func() (Stats, uint64, uint64) {
		p, clock := newTestProc(t)
		register(p)
		s, _ := New(p, Options{
			QueueCap: 16,
			Deadline: 400_000,
			ChannelFaults: fault.Plan{
				Seed:        0x5E12CE,
				PCorrupt:    0.05,
				PUnavail:    0.04,
				PDelay:      0.03,
				DelayCycles: 20_000,
			},
		})
		for i := 0; i < 6; i++ {
			s.Dial()
		}
		if err := s.Preload(OpenLoop{Arrivals: &Bursty{MeanGap: 25_000, Burst: 8}, Requests: 1500, Seed: 99}); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(s.Loop); err != nil {
			t.Fatal(err)
		}
		return s.Stats(), clock.Cycles(), s.Hist().Percentile(0.99)
	}
	st1, cyc1, p99a := run()
	st2, cyc2, p99b := run()
	if st1 != st2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", st1, st2)
	}
	if cyc1 != cyc2 || p99a != p99b {
		t.Fatalf("cycles/percentiles differ: %d vs %d, %d vs %d", cyc1, cyc2, p99a, p99b)
	}
	if st1.Resets == 0 || st1.Corrupt == 0 || st1.Dropped == 0 {
		t.Fatalf("fault plan should have produced resets, corruption and drops: %+v", st1)
	}
	if st1.Served == 0 {
		t.Fatalf("some requests must still be served: %+v", st1)
	}
	if st1.Served+st1.Errors > st1.Admitted {
		t.Fatalf("served+errors exceeds admitted: %+v", st1)
	}
}

// TestCorruptedReplyResetsConnection pins the reply path specifically: with
// corruption certain, the first exchange resets the connection (the request
// leg corrupts first) and a pending mailbox observes the incarnation bump.
func TestCorruptedReplyResetsConnection(t *testing.T) {
	p, _ := newTestProc(t)
	register(p)
	s, _ := New(p, Options{ChannelFaults: fault.Plan{Seed: 1, PCorrupt: 1}})
	c, _ := s.Dial()
	_, gen, err := c.Submit("echo", 5)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := p.Run(s.Loop); err != nil {
		t.Fatal(err)
	}
	if c.Gen() == gen {
		t.Fatalf("certain corruption must reset the connection")
	}
	if _, ok := c.TakeReply(0); ok {
		t.Fatalf("no reply may survive a reset")
	}
	if st := s.Stats(); st.Resets == 0 || st.Served != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestArrivalProcessesDeterministic(t *testing.T) {
	gaps := func(ap ArrivalProcess, seed uint64) []uint64 {
		r := sim.NewRand(seed)
		out := make([]uint64, 64)
		for i := range out {
			out[i] = ap.NextGap(r)
		}
		return out
	}
	a := gaps(Poisson{MeanGap: 1000}, 7)
	b := gaps(Poisson{MeanGap: 1000}, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("poisson gap %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	burst := gaps(&Bursty{MeanGap: 1000, Burst: 4}, 7)
	zeros := 0
	for _, g := range burst {
		if g == 0 {
			zeros++
		}
	}
	if zeros < 40 {
		t.Fatalf("bursty/4 should emit ~3/4 zero gaps, got %d of %d", zeros, len(burst))
	}
}

func TestOptionValidation(t *testing.T) {
	p, _ := newTestProc(t)
	if _, err := New(p, Options{ChannelFaults: fault.Plan{PCorrupt: 2}}); err == nil {
		t.Fatalf("invalid channel plan must be rejected")
	}
	if _, err := New(p, Options{QueueCap: -1}); err == nil {
		t.Fatalf("negative queue cap must be rejected")
	}
	s, _ := New(p, Options{})
	if err := s.Preload(OpenLoop{Requests: 1, Arrivals: Poisson{MeanGap: 1}}); err == nil {
		t.Fatalf("preload with no conns must fail")
	}
}

func TestStatsCheckLedger(t *testing.T) {
	balanced := Stats{Offered: 10, Admitted: 8, Backpressure: 2,
		Served: 4, Errors: 1, Timeouts: 1, Dropped: 2, KeepAlives: 3, Resets: 1}
	if err := balanced.Check(); err != nil {
		t.Fatalf("balanced ledger rejected: %v", err)
	}
	for _, tc := range []struct {
		field string
		bump  func(*Stats)
	}{
		{"Offered", func(s *Stats) { s.Offered++ }},
		{"Admitted", func(s *Stats) { s.Admitted++ }},
		{"Backpressure", func(s *Stats) { s.Backpressure++ }},
		{"Served", func(s *Stats) { s.Served++ }},
		{"Errors", func(s *Stats) { s.Errors++ }},
		{"Timeouts", func(s *Stats) { s.Timeouts++ }},
		{"Dropped", func(s *Stats) { s.Dropped++ }},
	} {
		st := balanced
		tc.bump(&st)
		if err := st.Check(); err == nil {
			t.Errorf("ledger with %s off by one passed", tc.field)
		}
	}
}
