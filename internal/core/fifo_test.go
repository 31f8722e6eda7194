package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"autarky/internal/cluster"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// refFIFOVictims is the reference victim source: nextFIFOVictims as it was
// before the queue became lazy. Every call sweeps the whole queue, drops
// the entries that are stale at that moment and returns the first n valid
// ones. It reads the live queue r.fifo[r.fifoHead:] and leaves the
// survivors compacted at the front of the slice; the queued counts and the
// stale mark, which only the lazy queue reads, are left alone.
func refFIFOVictims(r *Runtime, n int) []mmu.VAddr {
	var out []mmu.VAddr
	q := r.fifo[r.fifoHead:]
	keep := r.fifo[:0]
	for i, vpn := range q {
		pi := r.pages[vpn]
		if pi == nil || !pi.resident || pi.pinned {
			continue // stale entry
		}
		if len(out) < n {
			out = append(out, pi.va)
		} else {
			keep = append(keep, q[i])
		}
	}
	r.fifo, r.fifoHead = keep, 0
	return out
}

// refRateLimit and refCluster are the two FIFO-backed policies with their
// victim source replaced by the reference.
type refRateLimit struct{ *RateLimitPolicy }

func (p refRateLimit) PickVictims(r *Runtime, need int) []mmu.VAddr {
	if p.EvictBatch > need {
		need = p.EvictBatch
	}
	return refFIFOVictims(r, need)
}

type refCluster struct{ *ClusterPolicy }

func (p refCluster) PickVictims(r *Runtime, need int) []mmu.VAddr {
	return p.pickVictims(r, need, func(n int) []mmu.VAddr { return refFIFOVictims(r, n) })
}

// pickRecorder logs every victim set a policy picks, and whether the
// runtime's queue was marked stale when the pick started.
type pickRecorder struct {
	Policy
	picks      [][]mmu.VAddr
	staleCalls int
	cleanCalls int
}

func (p *pickRecorder) PickVictims(r *Runtime, need int) []mmu.VAddr {
	if r.fifoStale {
		p.staleCalls++
	} else {
		p.cleanCalls++
	}
	v := p.Policy.PickVictims(r, need)
	p.picks = append(p.picks, append([]mmu.VAddr(nil), v...))
	return v
}

// fifoTwin is one side of the equivalence test: a runtime over a fake
// driver whose policy records its picks.
type fifoTwin struct {
	r   *Runtime
	d   *fakeDriver
	rec *pickRecorder
}

func newFIFOTwin(limit int, p Policy) *fifoTwin {
	r, d := newTestRuntime(limit)
	r.CPU = &sgx.CPU{} // BalloonRequest checks that no enclave is executing
	rec := &pickRecorder{Policy: p}
	r.Policy = rec
	return &fifoTwin{r: r, d: d, rec: rec}
}

// state renders everything the victim order can influence, so the twins
// can be compared after every step.
func (tw *fifoTwin) state(npages int) string {
	s := fmt.Sprintf("evicts=%v fetches=%v stats=%+v", tw.d.evicts, tw.d.fetches, tw.r.Stats)
	for v := uint64(1); v <= uint64(npages); v++ {
		if pi := tw.r.pages[v]; pi != nil {
			s += fmt.Sprintf(" %d:%t/%t/%t", v, pi.resident, pi.pinned, tw.d.resident[v])
		} else {
			s += fmt.Sprintf(" %d:-/%t", v, tw.d.resident[v])
		}
	}
	return s
}

// TestFIFOQueueMatchesFullSweep drives the lazy queue and the reference
// full sweep through the same seeded random sequences of every operation
// that adds to the queue or makes an entry stale — ManagePages (pinned and
// unpinned, on new and already-managed pages), fetches with rate-limit and
// cluster evictions (including the cluster policy's FIFO fallback),
// balloon evictions, ReleasePages followed by re-management, and
// RefreshResidence swap-outs and swap-ins — and requires identical victim
// sequences and identical runtime state after every step.
func TestFIFOQueueMatchesFullSweep(t *testing.T) {
	const (
		npages = 24
		limit  = 10
		trials = 120
		steps  = 150
	)
	var stale, clean, picks int
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		var a, b *fifoTwin
		if trial%2 == 0 {
			batch := rng.Intn(4)
			pa, pb := NewRateLimitPolicy(0, 1<<40), NewRateLimitPolicy(0, 1<<40)
			pa.EvictBatch, pb.EvictBatch = batch, batch
			a, b = newFIFOTwin(limit, pa), newFIFOTwin(limit, refRateLimit{pb})
		} else {
			reg := cluster.NewRegistry()
			for c := 0; c < 4; c++ {
				id := reg.NewCluster(0)
				for k := 0; k < 2+rng.Intn(3); k++ {
					reg.AddPage(id, uint64(1+rng.Intn(npages)))
				}
			}
			a, b = newFIFOTwin(limit, NewClusterPolicy(reg)), newFIFOTwin(limit, refCluster{NewClusterPolicy(reg)})
		}
		twins := []*fifoTwin{a, b}

		// pick draws up to k distinct pages satisfying ok, in random order;
		// both twins get the same slice.
		pick := func(k int, ok func(v uint64) bool) []mmu.VAddr {
			var out []mmu.VAddr
			for _, v := range rng.Perm(npages) {
				if len(out) == k {
					break
				}
				if vpn := uint64(v + 1); ok(vpn) {
					out = append(out, mmu.PageOf(vpn))
				}
			}
			return out
		}
		managed := func(v uint64) bool { return a.r.pages[v] != nil }
		resident := func(v uint64) bool { return managed(v) && a.r.pages[v].resident }

		for step := 0; step < steps; step++ {
			var op string
			var errs [2]error
			switch k := 1 + rng.Intn(3); rng.Intn(8) {
			case 0: // the OS brings unmanaged pages into EPC
				op = "os-touch"
				pages := pick(k, func(v uint64) bool { return !managed(v) })
				for _, tw := range twins {
					for _, va := range pages {
						tw.d.resident[va.VPN()] = true
					}
				}
			case 1: // (re-)manage, pinned or not
				pinned := rng.Intn(4) == 0
				op = fmt.Sprintf("manage(pinned=%t)", pinned)
				pages := pick(k, func(uint64) bool { return true })
				for i, tw := range twins {
					errs[i] = tw.r.ManagePages(pages, mmu.PermRW, pinned)
				}
			case 2, 3: // demand fetch, evicting under quota pressure
				op = "fetch"
				pages := pick(k, managed)
				for i, tw := range twins {
					errs[i] = tw.r.fetchPages(pages)
				}
			case 4: // balloon upcall
				op = "balloon"
				for i, tw := range twins {
					_, errs[i] = tw.r.BalloonRequest(k)
				}
			case 5: // release, to be re-managed by a later step
				op = "release"
				pages := pick(k, managed)
				for i, tw := range twins {
					errs[i] = tw.r.ReleasePages(pages)
				}
			case 6: // the OS swaps resident managed pages out
				op = "refresh-out"
				pages := pick(k, resident)
				for i, tw := range twins {
					for _, va := range pages {
						tw.d.resident[va.VPN()] = false
					}
					errs[i] = tw.r.RefreshResidence(pages)
				}
			case 7: // the OS swaps managed pages back in
				op = "refresh-in"
				pages := pick(k, func(v uint64) bool { return managed(v) && !resident(v) })
				for i, tw := range twins {
					for _, va := range pages {
						tw.d.resident[va.VPN()] = true
					}
					errs[i] = tw.r.RefreshResidence(pages)
				}
			}
			if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
				t.Fatalf("trial %d step %d %s: errors differ: %v vs reference %v", trial, step, op, errs[0], errs[1])
			}
			if !reflect.DeepEqual(a.rec.picks, b.rec.picks) {
				t.Fatalf("trial %d step %d %s: victims differ:\n lazy      %v\n reference %v", trial, step, op, a.rec.picks, b.rec.picks)
			}
			if sa, sb := a.state(npages), b.state(npages); sa != sb {
				t.Fatalf("trial %d step %d %s: state differs:\n lazy      %s\n reference %s", trial, step, op, sa, sb)
			}
		}
		stale += a.rec.staleCalls
		clean += a.rec.cleanCalls
		picks += len(a.rec.picks)
	}
	// Both queue paths must have been exercised, or the test proves nothing.
	if stale == 0 || clean == 0 {
		t.Fatalf("victim picks: %d on a stale-marked queue, %d on a clean one; want both > 0", stale, clean)
	}
	t.Logf("%d victim picks: %d swept, %d popped", picks, stale, clean)
}

// TestFIFOStaleThenRevived pins the case a lazy queue gets wrong: an entry
// that went stale and was swept must not come back when its page is made
// resident again — the revived page was re-appended at the tail, and that
// is where it must be picked.
func TestFIFOStaleThenRevived(t *testing.T) {
	r, d := newTestRuntime(0)
	for v := uint64(1); v <= 4; v++ {
		d.resident[v] = true
	}
	if err := r.ManagePages(pagesOf(1, 2, 3, 4), mmu.PermRW, false); err != nil {
		t.Fatal(err)
	}
	// Page 2 is swapped out behind the runtime's back: its entry is stale.
	d.resident[2] = false
	if err := r.RefreshResidence(pagesOf(2)); err != nil {
		t.Fatal(err)
	}
	// A pick sweeps the stale entry away.
	if got := r.nextFIFOVictims(1); !reflect.DeepEqual(got, pagesOf(1)) {
		t.Fatalf("first victim %v, want page 1", got)
	}
	// Page 2 comes back and is queued behind 3 and 4.
	d.resident[2] = true
	if err := r.RefreshResidence(pagesOf(2)); err != nil {
		t.Fatal(err)
	}
	if got := r.nextFIFOVictims(3); !reflect.DeepEqual(got, pagesOf(3, 4, 2)) {
		t.Fatalf("victims %v, want pages 3, 4, 2", got)
	}
}

// TestFIFORevivedBeforeSweepKeepsPlace is the other half of the contract:
// a page that goes stale and is revived with no victim pick in between
// keeps its old entry too, because the full sweep only judges entries when
// it runs.
func TestFIFORevivedBeforeSweepKeepsPlace(t *testing.T) {
	r, d := newTestRuntime(0)
	for v := uint64(1); v <= 3; v++ {
		d.resident[v] = true
	}
	if err := r.ManagePages(pagesOf(1, 2, 3), mmu.PermRW, false); err != nil {
		t.Fatal(err)
	}
	d.resident[1] = false
	if err := r.RefreshResidence(pagesOf(1)); err != nil {
		t.Fatal(err)
	}
	d.resident[1] = true
	if err := r.RefreshResidence(pagesOf(1)); err != nil {
		t.Fatal(err)
	}
	if got := r.nextFIFOVictims(4); !reflect.DeepEqual(got, pagesOf(1, 2, 3, 1)) {
		t.Fatalf("victims %v, want pages 1, 2, 3, 1", got)
	}
}

// faultBenchDriver is a Driver with no bookkeeping beyond the resident
// count, so the fault round trip measured over it is the runtime's own.
type faultBenchDriver struct {
	fakeDriver
	limit, resident int
}

func (d *faultBenchDriver) FetchPages(_ *sgx.Enclave, pages []mmu.VAddr) error {
	d.resident += len(pages)
	return nil
}

func (d *faultBenchDriver) EvictPages(_ *sgx.Enclave, pages []mmu.VAddr) error {
	d.resident -= len(pages)
	return nil
}

func (d *faultBenchDriver) Quota(*sgx.Enclave) (int, int) { return d.limit, d.resident }

// newFaultRoundTrip builds a rate-limited SGXv1 runtime managing twice
// quota pages, the first quota of them resident, and returns it with a
// function that raises the next legitimate fault: a cyclic sweep over the
// pages, so every fault evicts the oldest resident page and fetches one.
func newFaultRoundTrip(tb testing.TB, quota int) (*Runtime, func()) {
	const base = mmu.VAddr(0x10_0000)
	clock := sim.NewClock()
	costs := sim.DefaultCosts()
	d := &faultBenchDriver{fakeDriver: *newFakeDriver(0), limit: quota}
	r := NewRuntime(&sgx.CPU{}, d, clock, &costs)
	r.Attach(&sgx.Enclave{Base: base, Size: uint64(2*quota) * mmu.PageSize})
	r.Policy = NewRateLimitPolicy(0, 1<<62)
	pages := make([]mmu.VAddr, 2*quota)
	for i := range pages {
		pages[i] = base + mmu.VAddr(i*mmu.PageSize)
		d.fakeDriver.resident[pages[i].VPN()] = i < quota
	}
	if err := r.ManagePages(pages, mmu.PermRW, false); err != nil {
		tb.Fatal(err)
	}
	d.resident = quota
	next := quota
	return r, func() {
		r.handleFault(mmu.Fault{Addr: pages[next], NotPresent: true})
		next = (next + 1) % len(pages)
	}
}

// TestFaultRoundTripZeroAlloc gates the runtime's share of a rate-limited
// fault — handler, fetch plan, FIFO victim pick, eviction, fetch and queue
// upkeep — at zero heap allocations once the queue has reached its working
// size.
func TestFaultRoundTripZeroAlloc(t *testing.T) {
	r, fault := newFaultRoundTrip(t, 256)
	for i := 0; i < 4*256; i++ {
		fault()
	}
	if allocs := testing.AllocsPerRun(1000, fault); allocs != 0 {
		t.Errorf("rate-limit fault round trip allocates %.2f/op, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before its 1000 measured ones.
	const faults = 4*256 + 1001
	if r.Stats.SelfFaults != faults || r.Stats.EvictedPages != faults || r.Stats.FetchedPages != faults {
		t.Fatalf("stats %+v, want %d self-faults, each evicting and fetching one page", r.Stats, faults)
	}
}

// BenchmarkFaultRoundTrip measures the runtime's host cost of one
// rate-limited self-paging fault at a 256-page quota (one FIFO eviction and
// one fetch per fault).
func BenchmarkFaultRoundTrip(b *testing.B) {
	_, fault := newFaultRoundTrip(b, 256)
	for i := 0; i < 4*256; i++ {
		fault()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fault()
	}
}
