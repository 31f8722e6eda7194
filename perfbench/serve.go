package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"autarky"
	"autarky/internal/metrics"
)

// The serve workload: two enclave servers on one machine under the pin-all
// policy, so nothing pages. Each has hundreds of connections; one tenant
// gets Poisson arrivals and the other bursty ones, as in E14. The schedule
// is precomputed in simulated time at a fixed offered rate below capacity,
// so the generator never runs late, and each request's latency is its
// sojourn from its due time. One operation is one served request.

type serveSize struct {
	conns    int // connections per server
	requests int // open-loop requests per server
}

func serveSizes(short bool) serveSize {
	if short {
		return serveSize{conns: 50, requests: 2000}
	}
	return serveSize{conns: 500, requests: 500_000}
}

const (
	serveHeapPages = 96
	serveObjPages  = 4
	// serveMeanGap is each tenant's mean inter-arrival gap in cycles. At
	// saturation the machine serves one request per serveCost cycles (the
	// measured drain rate when the queues never empty), so two tenants
	// offer 2*serveCost/serveMeanGap = 70% of its capacity.
	serveCost    = 500
	serveMeanGap = 2 * serveCost * 10 / 7
	serveBurst   = 16
	// serveLimit is the latency limit, about twice the p999 sojourn at the
	// offered rate: a request whose sojourn exceeds it counts as failed.
	serveLimit = 400_000
	// serveHistMax is the latency histogram's exact range; no sojourn may
	// reach it.
	serveHistMax = 1 << 28
)

// serveTenant is one server with a shadow of each object's request count,
// which its handler checks against the count kept in enclave memory.
type serveTenant struct {
	srv    *autarky.Server
	heap   []autarky.VAddr
	shadow []uint64
	err    error
}

// handle serves one request: it reads the object's four pages, checks the
// counter in its first page against the shadow, and increments both.
func (t *serveTenant) handle(ctx *autarky.Context, arg uint64) (uint64, error) {
	obj := int(arg % uint64(len(t.heap)/serveObjPages))
	var buf [8]byte
	for i := 0; i < serveObjPages; i++ {
		ctx.Read(t.heap[obj*serveObjPages+i], buf[:])
	}
	head := t.heap[obj*serveObjPages]
	ctx.Read(head, buf[:])
	if got := binary.LittleEndian.Uint64(buf[:]); got != t.shadow[obj] && t.err == nil {
		t.err = fmt.Errorf("serve: object %d counter reads %d, want %d", obj, got, t.shadow[obj])
	}
	t.shadow[obj]++
	binary.LittleEndian.PutUint64(buf[:], t.shadow[obj])
	ctx.Write(head, buf[:])
	return t.shadow[obj], nil
}

func prepareServe(seed uint64, short bool, tr *tracer) (phase, error) {
	sz := serveSizes(short)
	m := autarky.NewMachine()
	tenants := make([]*serveTenant, 2)
	handled := 0 // requests handled so far, the operation id of traced spans
	for i := range tenants {
		t := &serveTenant{shadow: make([]uint64, serveHeapPages/serveObjPages)}
		h := func(ctx *autarky.Context, arg uint64) (uint64, error) {
			if tr == nil {
				return t.handle(ctx, arg)
			}
			tr.setOp(handled)
			handled++
			start := time.Now()
			v, err := t.handle(ctx, arg)
			tr.add("service.handler", start)
			return v, err
		}
		srv, err := m.Serve(autarky.AppImage{
			Name:      fmt.Sprintf("serve-%d", i),
			Libraries: []autarky.Library{{Name: "libserve.so", Pages: 2}},
			HeapPages: serveHeapPages,
		}, autarky.Config{SelfPaging: true, Mech: autarky.MechSGX1, Policy: autarky.PolicyPinAll},
			autarky.WithHandler("get", h),
			autarky.WithQueueCap(256),
			autarky.WithKeepAlive(1<<20),
			autarky.WithLatencyRange(serveHistMax))
		if err != nil {
			return phase{}, fmt.Errorf("serve: server %d: %w", i, err)
		}
		t.srv, t.heap = srv, srv.Proc().Heap.PageVAs()
		for c := 0; c < sz.conns; c++ {
			if _, err := srv.Dial(); err != nil {
				return phase{}, fmt.Errorf("serve: dial: %w", err)
			}
		}
		tenants[i] = t
	}
	// Preload both schedules after all loading, so their arrival clocks
	// start together.
	for i, t := range tenants {
		var arrivals autarky.ArrivalProcess = autarky.Poisson{MeanGap: serveMeanGap}
		if i == 1 {
			arrivals = &autarky.Bursty{MeanGap: serveMeanGap, Burst: serveBurst}
		}
		ol := autarky.OpenLoop{Arrivals: arrivals, Requests: sz.requests, Seed: seed*2 + uint64(i)}
		if err := t.srv.OpenLoop(ol); err != nil {
			return phase{}, fmt.Errorf("serve: preload: %w", err)
		}
	}

	machines := []*autarky.Machine{m}
	var before []autarky.MetricsSnapshot
	return phase{
		run: func(func()) error {
			before = snapshots(machines)
			drain := tr.begin("service.drain")
			defer tr.end(drain)
			for _, t := range tenants {
				if err := t.srv.Drain(); err != nil {
					return fmt.Errorf("serve: drain: %w", err)
				}
			}
			return nil
		},
		finish: func(rp *rep) error { return finishServe(rp, machines, before, tenants) },
	}, nil
}

// finishServe checks a drained run and records its figures: every offered
// request is accounted for, no latency sample saturated, and each served
// request's sojourn is in the merged histogram.
func finishServe(rp *rep, machines []*autarky.Machine, before []autarky.MetricsSnapshot, tenants []*serveTenant) error {
	d, err := snapshotDelta(machines, before)
	if err != nil {
		return err
	}
	var st autarky.ServiceStats
	hist := metrics.NewHistogram(serveHistMax)
	for _, t := range tenants {
		if t.err != nil {
			return t.err
		}
		s := t.srv.Stats()
		if got := s.Served + s.Errors + s.Backpressure + s.Timeouts + s.Dropped; got != s.Offered {
			return fmt.Errorf("serve: served+errors+refused+shed+lost = %d, offered %d", got, s.Offered)
		}
		st.Offered += s.Offered
		st.Served += s.Served
		st.Backpressure += s.Backpressure
		st.Timeouts += s.Timeouts
		st.KeepAlives += s.KeepAlives
		st.IdlePolls += s.IdlePolls
		hist.Merge(t.srv.Hist())
	}
	if hist.Saturated() != 0 {
		return fmt.Errorf("serve: %d latency samples saturated the histogram", hist.Saturated())
	}
	if hist.Count() != st.Served {
		return fmt.Errorf("serve: %d latency samples for %d served requests", hist.Count(), st.Served)
	}
	rp.ops = int(st.Served)
	rp.attempted = int(st.Offered)
	rp.failed = int(st.Offered - countAtMost(hist, serveLimit))
	rp.layerCounts(d, rp.ops)
	rp.percentiles(int(hist.Count()), hist.Percentile)
	offered := float64(st.Offered)
	rp.sim["service.keepalives_per_req"] = ratio(float64(st.KeepAlives), offered)
	rp.sim["service.idle_polls_per_req"] = ratio(float64(st.IdlePolls), offered)
	rp.sim["service.refused_frac"] = ratio(float64(st.Backpressure+st.Timeouts), offered)
	return nil
}

// countAtMost returns how many of h's samples are at most limit, by binary
// search over the nearest ranks.
func countAtMost(h *autarky.Histogram, limit uint64) uint64 {
	n := h.Count()
	lo, hi := uint64(0), n // the answer lies in [lo, hi]
	for lo < hi {
		mid := (lo + hi + 1) / 2
		// The q that makes nearest rank land exactly on rank mid.
		if h.Percentile((float64(mid)-0.5)/float64(n)) <= limit {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// serveHost derives the service layer's host timings of a traced rep.
func serveHost(r *rep, tr *tracer) {
	handlers := tr.durations("service.handler")
	var handled float64
	for _, d := range handlers {
		handled += d
	}
	r.host["service.handler_ns_p50"] = quantile(handlers, 0.5)
	r.host["service.overhead_ns_per_req"] = ratio(tr.total("service.drain")-handled, float64(r.attempted))
}
