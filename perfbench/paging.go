package main

import (
	"encoding/binary"
	"fmt"

	"autarky"
	"autarky/internal/core"
	"autarky/internal/sim"
)

// The paging workload: one self-paging enclave per paging mechanism (SGXv1
// EWB/ELDU, then SGXv2 self-paging) under the rate-limit policy, with a heap
// about twice the EPC quota. Seeded accesses are half writes and half
// reads; most go to a hot set that fits the quota, the rest to the cold
// pages, which forces faults. One operation is one page access.

type pagingSize struct {
	heapPages  int
	quotaPages int
	hotPages   int
	hotPercent uint64 // share of accesses that go to the hot set
	warm, ops  int    // accesses per enclave, warm-up and timed
}

func pagingSizes(short bool) pagingSize {
	if short {
		return pagingSize{heapPages: 64, quotaPages: 32, hotPages: 16, hotPercent: 90, warm: 500, ops: 2000}
	}
	return pagingSize{heapPages: 512, quotaPages: 256, hotPages: 192, hotPercent: 90, warm: 20_000, ops: 80_000}
}

type pageAccess struct {
	page  int32
	write bool
}

// pagingEnclave is one enclave with its shadow copy of every page's last
// written tag, against which each read is checked.
type pagingEnclave struct {
	p      *autarky.Proc
	heap   []autarky.VAddr
	shadow []uint64
	warm   []pageAccess
	timed  []pageAccess
}

// accesses draws n seeded accesses: hotPercent of them uniform over the
// hot pages, the rest uniform over the cold ones, half of all writes.
func (sz pagingSize) accesses(r *sim.Rand, hot, cold []int, n int) []pageAccess {
	out := make([]pageAccess, n)
	for i := range out {
		set := cold
		if r.Uint64n(100) < sz.hotPercent {
			set = hot
		}
		out[i] = pageAccess{page: int32(set[r.Intn(len(set))]), write: r.Uint64()&1 == 1}
	}
	return out
}

// access performs one access. A write stores tag in the page's first eight
// bytes; a read must return the tag last written there.
func (e *pagingEnclave) access(ctx *autarky.Context, a pageAccess, tag uint64, buf []byte) error {
	va := e.heap[a.page]
	if a.write {
		binary.LittleEndian.PutUint64(buf, tag)
		ctx.Write(va, buf)
		e.shadow[a.page] = tag
		return nil
	}
	ctx.Read(va, buf)
	if got := binary.LittleEndian.Uint64(buf); got != e.shadow[a.page] {
		return fmt.Errorf("paging: page %d read %#x, last written %#x", a.page, got, e.shadow[a.page])
	}
	return nil
}

// run performs seq inside the enclave, tagging writes from tagBase. A
// non-nil timer measures every access.
func (e *pagingEnclave) run(seq []pageAccess, tagBase uint64, t *accessTimer) error {
	var failure error
	buf := make([]byte, 8)
	err := e.p.Run(func(ctx *autarky.Context) {
		for i, a := range seq {
			t.start(e, i)
			failure = e.access(ctx, a, tagBase+uint64(i), buf)
			t.stop(e)
			if failure != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("paging: enclave run: %w", err)
	}
	return failure
}

// accessTimer records each timed access's simulated latency and, when
// tracing, a core.access span named by whether the access faulted (the
// runtime's handler count moved across the call).
type accessTimer struct {
	m       *autarky.Machine
	tr      *tracer
	samples []uint64
	base    int // operation id of the current sequence's first access

	span          int32
	faults, cycle uint64
}

func (t *accessTimer) start(e *pagingEnclave, i int) {
	if t == nil {
		return
	}
	t.tr.setOp(t.base + i)
	t.span = t.tr.begin("core.access.hit")
	t.faults = e.p.Runtime.Stats.HandlerInvocations
	t.cycle = t.m.Clock.Cycles()
}

func (t *accessTimer) stop(e *pagingEnclave) {
	if t == nil {
		return
	}
	t.samples = append(t.samples, t.m.Clock.Cycles()-t.cycle)
	t.tr.end(t.span)
	if e.p.Runtime.Stats.HandlerInvocations != t.faults {
		t.tr.rename(t.span, "core.access.fault")
	}
}

func preparePaging(seed uint64, short bool, tr *tracer) (phase, error) {
	sz := pagingSizes(short)
	m := autarky.NewMachine()
	if err := traceBackend(m, tr); err != nil {
		return phase{}, err
	}
	r := sim.NewRand(seed)
	var encs []*pagingEnclave
	for i, mech := range []core.Mech{autarky.MechSGX1, autarky.MechSGX2} {
		p, err := m.Spawn(autarky.AppImage{
			Name:      fmt.Sprintf("paging-%s", mech),
			Libraries: []autarky.Library{{Name: "libpaging.so", Pages: 4}},
			HeapPages: sz.heapPages,
		}, autarky.Config{
			SelfPaging:     true,
			Mech:           mech,
			Policy:         autarky.PolicyRateLimit,
			RateLimitBurst: 1 << 40,
			QuotaPages:     sz.quotaPages,
		})
		if err != nil {
			return phase{}, fmt.Errorf("paging: spawn %s: %w", mech, err)
		}
		perm := r.Perm(sz.heapPages)
		hot, cold := perm[:sz.hotPages], perm[sz.hotPages:]
		e := &pagingEnclave{
			p:      p,
			heap:   p.Heap.PageVAs(),
			shadow: make([]uint64, sz.heapPages),
			warm:   sz.accesses(r, hot, cold, sz.warm),
			timed:  sz.accesses(r, hot, cold, sz.ops),
		}
		// Fill every page, then warm up to steady residency.
		fill := make([]pageAccess, sz.heapPages)
		for pg := range fill {
			fill[pg] = pageAccess{page: int32(pg), write: true}
		}
		tags := uint64(i+1) << 48
		if err := e.run(fill, tags, nil); err != nil {
			return phase{}, err
		}
		if err := e.run(e.warm, tags|1<<40, nil); err != nil {
			return phase{}, err
		}
		encs = append(encs, e)
	}

	machines := []*autarky.Machine{m}
	var before []autarky.MetricsSnapshot
	t := &accessTimer{m: m, tr: tr, samples: make([]uint64, 0, len(encs)*sz.ops)}
	return phase{
		run: func(func()) error {
			before = snapshots(machines)
			for i, e := range encs {
				t.base = len(t.samples)
				if err := e.run(e.timed, uint64(i+1)<<48|2<<40, t); err != nil {
					return err
				}
			}
			return nil
		},
		finish: func(rp *rep) error {
			d, err := snapshotDelta(machines, before)
			if err != nil {
				return err
			}
			rp.ops, rp.attempted = len(t.samples), len(t.samples)
			rp.layerCounts(d, rp.ops)
			rp.latency(t.samples)
			return nil
		},
	}, nil
}

// pagingHost derives the per-layer host timings of a traced paging rep.
func pagingHost(rp *rep, tr *tracer) {
	rp.host["core.hit_access_ns_p50"] = quantile(tr.durations("core.access.hit"), 0.50)
	faulted := tr.durations("core.access.fault")
	rp.host["core.fault_access_ns_p50"] = quantile(faulted, 0.50)
	rp.host["core.fault_access_ns_p99"] = quantile(faulted, 0.99)
}
