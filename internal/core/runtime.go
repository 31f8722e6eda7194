package core

import (
	"errors"
	"fmt"
	"sort"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// RuntimeStats counts runtime-level events for the experiments.
type RuntimeStats struct {
	HandlerInvocations uint64 // trusted fault-handler runs
	SelfFaults         uint64 // legitimate faults on enclave-managed pages
	ForwardedFaults    uint64 // faults on OS-managed pages forwarded to OS
	FetchedPages       uint64 // pages fetched by self-paging
	EvictedPages       uint64 // pages evicted by self-paging
	BalloonEvictions   uint64 // pages released through OS upcalls
	AttacksDetected    uint64
}

// pageInfo is the runtime's tracking for one enclave-managed page
// (paper §5.2.1: "the trusted runtime tracks the residence status of each
// page and treats any unexpected fault on a purportedly-resident page as an
// attack").
type pageInfo struct {
	va       mmu.VAddr
	resident bool
	pinned   bool // never evicted (code, handler, metadata pages)
	perms    mmu.Perms
	version  uint64 // SGXv2 software-path anti-replay counter
	queued   int    // entries naming this page in the runtime's FIFO queue
}

// Runtime is the Autarky self-paging runtime: the sgx.Runtime installed at
// the enclave entry point.
type Runtime struct {
	CPU    *sgx.CPU
	Driver Driver
	Clock  *sim.Clock
	Costs  *sim.Costs

	// Policy decides what a legitimate fault fetches and what gets evicted
	// under memory pressure.
	Policy Policy

	// Mech selects SGXv1 (driver EWB/ELDU) or SGXv2 (software) paging.
	Mech Mech

	// App is the application entry point, run on a CSSA-0 entry.
	App func(ctx *Context)

	// HandlerCycles is the flat cost of one trusted fault-handler
	// invocation (SSA decode, bookkeeping) — the "Autarky PF handler
	// overhead" component of Fig. 5.
	HandlerCycles uint64

	Stats RuntimeStats

	m *metrics.Metrics

	enclave *sgx.Enclave
	pages   map[uint64]*pageInfo
	// fifo orders resident non-pinned enclave-managed pages for the default
	// eviction policies (A/D bits are architecturally unusable, §5.1.4).
	// The live queue is fifo[fifoHead:]; popping advances fifoHead.
	//
	// An entry goes stale when its page stops being a valid victim
	// (evicted, pinned, released, found swapped out) other than by being
	// popped. fifoStale records that some queued page may have: until then
	// every entry is a valid victim and nextFIFOVictims pops from the head;
	// after it, the next call sweeps the whole queue once, dropping what is
	// stale at that moment, exactly as if every call swept.
	fifo      []uint64
	fifoHead  int
	fifoStale bool

	// scratch holds the reusable buffers of the hot paging paths. Each
	// field is owned by exactly one function and valid only within one call;
	// the paths nest (fetchPages → evictPages → evictSGX2) but never
	// re-enter the same function, so plain fields suffice.
	scratch struct {
		want    []mmu.VAddr          // fetchPages: non-resident subset
		evict   []mmu.VAddr          // evictPages: resident non-pinned subset
		victims []mmu.VAddr          // nextFIFOVictims result
		perms   []mmu.Perms          // fetchSGX2: per-page EAUG permissions
		need    []mmu.VAddr          // fetchSGX2: previously evicted subset
		blobs   []pagestore.Blob     // fetchSGX2: FetchBatch output
		plain   []byte               // fetchSGX2: OpenAppend destination
		pfns    []mmu.PFN            // evictSGX2: frozen frames
		batch   []pagestore.PageBlob // evictSGX2: EvictBatch input
		arena   []byte               // evictSGX2: sealed-blob arena
		page    []byte               // evictSGX2: plaintext page snapshot
		one     [1]mmu.VAddr         // onePage: single-page fetch plans
	}

	progress uint64 // application-reported forward progress (§5.2.4)

	appErr error
}

// NewRuntime builds a runtime. Attach must be called (by the loader) before
// the enclave runs.
func NewRuntime(cpu *sgx.CPU, driver Driver, clock *sim.Clock, costs *sim.Costs) *Runtime {
	return &Runtime{
		CPU:           cpu,
		Driver:        driver,
		Clock:         clock,
		Costs:         costs,
		Policy:        NewPinAllPolicy(),
		HandlerCycles: 1200,
		m:             metrics.Of(clock),
		pages:         make(map[uint64]*pageInfo),
	}
}

// Attach binds the runtime to its enclave after loading.
func (r *Runtime) Attach(e *sgx.Enclave) { r.enclave = e }

// Enclave returns the attached enclave.
func (r *Runtime) Enclave() *sgx.Enclave { return r.enclave }

// Progress returns the application's forward-progress counter.
func (r *Runtime) Progress() uint64 { return r.progress }

// SeedProgress restores the forward-progress counter from a checkpoint, so
// rate-limit accounting in a restored enclave continues where the
// checkpointed incarnation left off instead of restarting at zero.
func (r *Runtime) SeedProgress(n uint64) { r.progress = n }

// AppError returns the error the application finished with, if any.
func (r *Runtime) AppError() error { return r.appErr }

// ManagePages transfers the pages to enclave management
// (ay_set_enclave_managed) and starts tracking them. Pinned pages are never
// chosen as eviction victims; the fault handler treats any fault on a
// resident page — pinned or not — as an attack.
func (r *Runtime) ManagePages(pages []mmu.VAddr, perms mmu.Perms, pinned bool) error {
	status, err := r.Driver.SetEnclaveManaged(r.enclave, pages)
	if err != nil {
		return err
	}
	if len(status) != len(pages) {
		return fmt.Errorf("core: driver returned %d statuses for %d pages", len(status), len(pages))
	}
	for _, st := range status {
		vpn := st.VA.VPN()
		pi := r.pages[vpn]
		if pi == nil {
			pi = &pageInfo{va: st.VA.PageBase()}
			r.pages[vpn] = pi
		}
		if !st.Resident || pinned {
			r.unqueue(pi)
		}
		pi.resident = st.Resident
		pi.pinned = pinned
		pi.perms = perms
		if st.Resident && !pinned {
			r.enqueue(pi)
		}
	}
	return nil
}

// RefreshResidence re-queries the driver for the current residence of the
// given managed pages and updates tracking (used after load-time fetches,
// and after the OS swaps a suspended enclave back in).
func (r *Runtime) RefreshResidence(pages []mmu.VAddr) error {
	status, err := r.Driver.SetEnclaveManaged(r.enclave, pages)
	if err != nil {
		return err
	}
	for _, st := range status {
		pi := r.pages[st.VA.VPN()]
		if pi == nil {
			return fmt.Errorf("core: RefreshResidence of unmanaged page %s", st.VA)
		}
		wasResident := pi.resident
		if !st.Resident {
			r.unqueue(pi)
		}
		pi.resident = st.Resident
		if st.Resident && !wasResident && !pi.pinned {
			r.enqueue(pi)
		}
	}
	return nil
}

// EnsurePinnedResident fetches every pinned enclave-managed page that is
// not currently resident (pages spilled during loading). Pinned pages must
// be resident before the enclave runs: a fault on one is treated as an
// attack.
func (r *Runtime) EnsurePinnedResident() error {
	var want []mmu.VAddr
	for _, pi := range r.pages {
		if pi.pinned && !pi.resident {
			want = append(want, pi.va)
		}
	}
	// Ascending address order: map iteration must not decide which page is
	// fetched at which cycle, or cycle-keyed behavior (fault plans, backend
	// charges) would vary run to run.
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return r.EnsureResident(want)
}

// EnsureResident fetches any non-resident pages of the given managed set,
// evicting victims per policy under quota pressure. It always uses the
// SGXv1 driver path, the only one usable outside enclave mode (the loader
// calls it before first entry).
func (r *Runtime) EnsureResident(pages []mmu.VAddr) error {
	var want []mmu.VAddr
	for _, va := range pages {
		if resident, managed := r.PageResident(va); managed && !resident {
			want = append(want, va.PageBase())
		}
	}
	if len(want) == 0 {
		return nil
	}
	savedMech := r.Mech
	r.Mech = MechSGX1
	defer func() { r.Mech = savedMech }()
	return r.fetchPages(want)
}

// ReleasePages returns pages to OS management (ay_set_os_managed) and stops
// tracking them.
func (r *Runtime) ReleasePages(pages []mmu.VAddr) error {
	if err := r.Driver.SetOSManaged(r.enclave, pages); err != nil {
		return err
	}
	for _, va := range pages {
		if pi := r.pages[va.VPN()]; pi != nil {
			r.unqueue(pi)
			delete(r.pages, va.VPN())
		}
	}
	return nil
}

// PageResident reports the runtime's belief about a page's residence and
// whether the page is enclave-managed at all.
func (r *Runtime) PageResident(va mmu.VAddr) (resident, managed bool) {
	pi, ok := r.pages[va.VPN()]
	if !ok {
		return false, false
	}
	return pi.resident, true
}

// ResidentManagedPages counts resident enclave-managed pages.
func (r *Runtime) ResidentManagedPages() int {
	n := 0
	for _, pi := range r.pages {
		if pi.resident {
			n++
		}
	}
	return n
}

// OnEntry implements sgx.Runtime: the attested entry-point dispatcher.
func (r *Runtime) OnEntry(tcs *sgx.TCS) {
	if tcs.CSSA() == 0 {
		// Fresh call: run the application.
		if r.App != nil {
			ctx := &Context{r: r}
			r.App(ctx)
		}
		return
	}
	// Exception entry: an SSA frame holds the (unmasked) fault details.
	frame, ok := tcs.TopSSA()
	if !ok || !frame.Exit.Valid {
		// Spurious re-entry (e.g. after a timer AEX): nothing to handle.
		return
	}
	r.handleFault(frame.Exit.Fault)
	// Resume: with the proposed optimizations the handler restores the
	// faulting context itself; otherwise fall back to EEXIT + ERESUME.
	if r.enclave.Attrs.Has(sgx.AttrInEnclaveResume) || r.enclave.Attrs.Has(sgx.AttrElideAEX) {
		r.CPU.ResumeInEnclave()
	}
}

// handleFault is the trusted page-fault handler (paper Fig. 2): it
// classifies the fault using the runtime's own residence tracking and
// either terminates (attack), self-pages (legitimate enclave-managed
// fault), or forwards to the OS (OS-managed page).
func (r *Runtime) handleFault(f mmu.Fault) {
	r.Clock.ChargeAs(sim.CatFault, r.HandlerCycles)
	r.Stats.HandlerInvocations++
	r.m.Inc(metrics.CntHandlerRuns)

	va := f.Addr.PageBase()
	if !r.enclave.Contains(va) {
		// Faults outside ELRANGE never vector here (they do not set the
		// pending flag); seeing one means the OS is playing games.
		r.detectAttack(fmt.Sprintf("handler invoked for non-enclave address %s", va))
		return
	}

	pi := r.pages[va.VPN()]
	if pi == nil {
		// OS-managed page: forward, subject to policy (rate limiting).
		r.Stats.ForwardedFaults++
		r.m.Inc(metrics.CntForwardedFaults)
		if err := r.Policy.OnOSFault(r, va); err != nil {
			r.CPU.Terminate(sgx.TerminateRateLimit, err.Error())
		}
		if err := r.Driver.FetchPages(r.enclave, r.onePage(va)); err != nil {
			r.terminateFetch(err, "OS failed to service forwarded fault: ")
		}
		return
	}

	if pi.resident {
		// The page should be mapped and accessible: the OS unmapped it,
		// remapped it wrong, or cleared its A/D bits. This is the
		// controlled channel — kill the enclave (paper §5.3).
		r.detectAttack(fmt.Sprintf("fault on resident enclave-managed page %s", va))
		return
	}

	// Legitimate self-paging fault.
	r.Stats.SelfFaults++
	r.m.Inc(metrics.CntSelfFaults)
	fetch, err := r.Policy.PlanFetch(r, va)
	if err != nil {
		if errors.Is(err, ErrRateLimited) {
			r.CPU.Terminate(sgx.TerminateRateLimit, err.Error())
		}
		r.detectAttack(err.Error())
		return
	}
	if err := r.fetchPages(fetch); err != nil {
		r.terminateFetch(err, "self-paging fetch failed: ")
	}
}

// terminateFetch kills the enclave after a failed page-in, distinguishing a
// swapped-in page that failed its integrity/freshness check (a tampered,
// truncated, replayed or mis-keyed blob on either paging path) and a
// backing store that stayed unavailable through every recovery layer from
// other fetch failures. The concrete error rides along as the termination
// cause, so callers can errors.Is/As down to the refined sentinel — and to
// the failing page's BlobError key — through the TerminationError.
func (r *Runtime) terminateFetch(err error, prefix string) {
	switch {
	case errors.Is(err, pagestore.ErrIntegrity):
		r.CPU.TerminateCause(sgx.TerminateIntegrity, prefix+err.Error(), err)
	case errors.Is(err, pagestore.ErrUnavailable):
		r.CPU.TerminateCause(sgx.TerminateUnavailable, prefix+err.Error(), err)
	default:
		r.CPU.TerminateCause(sgx.TerminatePolicy, prefix+err.Error(), err)
	}
}

func (r *Runtime) detectAttack(detail string) {
	r.Stats.AttacksDetected++
	r.m.Inc(metrics.CntAttacksDetected)
	r.CPU.Terminate(sgx.TerminateAttackDetected, detail)
}

// fetchPages brings a set of enclave-managed pages in, evicting per policy
// when the quota is tight. Pages already resident are skipped (closure
// fetches routinely include them).
func (r *Runtime) fetchPages(pages []mmu.VAddr) error {
	// Everything below — driver round trips, evictions, the SGX2 software
	// path — is page-movement work unless a nested charge (crypto, policy)
	// overrides.
	defer r.Clock.SetCategory(r.Clock.SetCategory(sim.CatPaging))
	want := r.scratch.want[:0]
	for _, va := range pages {
		pi := r.pages[va.VPN()]
		if pi == nil {
			return fmt.Errorf("core: fetch plan includes unmanaged page %s", va)
		}
		if !pi.resident {
			want = append(want, va.PageBase())
		}
	}
	r.scratch.want = want
	if len(want) == 0 {
		return nil
	}

	// Make room: the kernel evicts OS-managed pages on its own; when it
	// reports pressure, evict our own per policy.
	for {
		limit, resident := r.Driver.Quota(r.enclave)
		if limit <= 0 || resident+len(want) <= limit {
			break
		}
		need := resident + len(want) - limit
		victims := r.Policy.PickVictims(r, need)
		if len(victims) == 0 {
			break // let the kernel try; it may still evict OS-managed pages
		}
		if err := r.evictPages(victims); err != nil {
			return err
		}
	}

	var err error
	switch r.Mech {
	case MechSGX1:
		err = r.Driver.FetchPages(r.enclave, want)
		if errors.Is(err, ErrEPCPressure) {
			victims := r.Policy.PickVictims(r, len(want))
			if len(victims) == 0 {
				return err
			}
			if evErr := r.evictPages(victims); evErr != nil {
				return evErr
			}
			err = r.Driver.FetchPages(r.enclave, want)
		}
	case MechSGX2:
		err = r.fetchSGX2(want)
	}
	if err != nil {
		return err
	}
	for _, va := range want {
		pi := r.pages[va.VPN()]
		pi.resident = true
		if !pi.pinned {
			r.enqueue(pi)
		}
		r.Stats.FetchedPages++
		r.m.Inc(metrics.CntPagesFetched)
	}
	r.Policy.OnFetched(r, want)
	return nil
}

// evictPages writes a set of enclave-managed pages out through the selected
// mechanism and updates tracking.
func (r *Runtime) evictPages(pages []mmu.VAddr) error {
	defer r.Clock.SetCategory(r.Clock.SetCategory(sim.CatPaging))
	out := r.scratch.evict[:0]
	for _, va := range pages {
		pi := r.pages[va.VPN()]
		if pi == nil || !pi.resident || pi.pinned {
			continue
		}
		out = append(out, va.PageBase())
	}
	r.scratch.evict = out
	if len(out) == 0 {
		return nil
	}
	var err error
	switch r.Mech {
	case MechSGX1:
		err = r.Driver.EvictPages(r.enclave, out)
	case MechSGX2:
		err = r.evictSGX2(out)
	}
	if err != nil {
		return err
	}
	for _, va := range out {
		pi := r.pages[va.VPN()]
		r.unqueue(pi)
		pi.resident = false
		r.Stats.EvictedPages++
		r.m.Inc(metrics.CntPagesEvicted)
	}
	r.Policy.OnEvicted(r, out)
	return nil
}

// onePage returns va as a one-page fetch set in runtime scratch, so the
// single-page fault paths build no slice per fault. The result is valid
// until the next onePage call.
func (r *Runtime) onePage(va mmu.VAddr) []mmu.VAddr {
	r.scratch.one[0] = va
	return r.scratch.one[:]
}

// enqueue appends a page that just became a valid victim (resident and
// not pinned) at the FIFO tail. The queue's dead head is reclaimed once it
// is at least half the slice, so appends stay amortized O(1) and, once the
// slice has grown to the working set, allocation-free.
func (r *Runtime) enqueue(pi *pageInfo) {
	if len(r.fifo) == cap(r.fifo) && r.fifoHead > 0 && r.fifoHead >= len(r.fifo)/2 {
		r.fifo = r.fifo[:copy(r.fifo, r.fifo[r.fifoHead:])]
		r.fifoHead = 0
	}
	r.fifo = append(r.fifo, pi.va.VPN())
	pi.queued++
}

// unqueue notes that a page is about to stop being a valid victim other
// than by being popped. If queue entries still name it they are now stale,
// and the next nextFIFOVictims call must sweep.
func (r *Runtime) unqueue(pi *pageInfo) {
	if pi.queued > 0 {
		r.fifoStale = true
	}
}

// nextFIFOVictims returns up to n resident, non-pinned pages in FIFO order,
// removing them from the queue. It is the shared victim source for the
// demand and rate-limited policies. The returned slice is runtime scratch,
// valid until the next call.
//
// While no queued page has gone stale every entry is a valid victim, so the
// victims are the first n entries and the call costs O(n). Otherwise it
// sweeps the whole queue once, dropping every entry that is stale at this
// moment, and clears the mark.
func (r *Runtime) nextFIFOVictims(n int) []mmu.VAddr {
	out := r.scratch.victims[:0]
	if r.fifoStale {
		out = r.sweepFIFO(out, n)
	} else {
		for r.fifoHead < len(r.fifo) && len(out) < n {
			pi := r.pages[r.fifo[r.fifoHead]]
			r.fifoHead++
			pi.queued--
			out = append(out, pi.va)
		}
		if r.fifoHead == len(r.fifo) {
			r.fifo, r.fifoHead = r.fifo[:0], 0
		}
	}
	r.scratch.victims = out
	return out
}

// sweepFIFO is nextFIFOVictims over a queue that may hold stale entries: it
// appends up to n valid victims to out in queue order, compacts the valid
// remainder to the front of the slice and recounts every tracked page's
// queued entries (a page released and managed again is a new pageInfo that
// inherits the old one's entries).
func (r *Runtime) sweepFIFO(out []mmu.VAddr, n int) []mmu.VAddr {
	q := r.fifo[r.fifoHead:]
	for _, vpn := range q {
		if pi := r.pages[vpn]; pi != nil {
			pi.queued = 0
		}
	}
	keep := r.fifo[:0]
	for _, vpn := range q {
		pi := r.pages[vpn]
		if pi == nil || !pi.resident || pi.pinned {
			continue // stale entry
		}
		if len(out) < n {
			out = append(out, pi.va)
		} else {
			keep = append(keep, vpn)
			pi.queued++
		}
	}
	r.fifo, r.fifoHead, r.fifoStale = keep, 0, false
	return out
}
