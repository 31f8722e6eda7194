package core

import (
	"fmt"

	"autarky/internal/cluster"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sgx"
)

// ErrRateLimited marks a policy refusal caused by the fault-rate bound
// (terminates with TerminateRateLimit rather than TerminateAttackDetected).
// It aliases the canonical sentinel in internal/sgx — the same value the
// facade re-exports and sgx.TerminationError unwraps to — so errors.Is
// matches the condition across every layer.
var ErrRateLimited = sgx.ErrRateLimited

// Policy is a pluggable secure self-paging policy (paper §5.2). The runtime
// calls it from the trusted fault handler; everything a policy decides is
// visible to the OS through legitimate paging activity, so the policy
// choice determines what leaks (§5.3).
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// PlanFetch maps a legitimate fault on an enclave-managed page to the
	// set of pages to fetch (it must include va). Returning an error means
	// the fault is never legitimate under this policy — treat as attack.
	// The returned slice is only read until the fetch completes, so it may
	// be scratch the policy or runtime reuses on the next fault.
	PlanFetch(r *Runtime, va mmu.VAddr) ([]mmu.VAddr, error)
	// PickVictims chooses at least min(need, available) resident non-pinned
	// enclave-managed pages to evict under memory pressure.
	PickVictims(r *Runtime, need int) []mmu.VAddr
	// OnOSFault is consulted for faults on OS-managed pages before they are
	// forwarded; an error terminates the enclave (rate limiting, §5.2.4).
	OnOSFault(r *Runtime, va mmu.VAddr) error
	// OnFetched and OnEvicted keep policy-internal state in sync with the
	// runtime's paging actions.
	OnFetched(r *Runtime, pages []mmu.VAddr)
	OnEvicted(r *Runtime, pages []mmu.VAddr)
}

// --- PinAll ---------------------------------------------------------------

// PinAllPolicy is the strictest policy (paper §5.2 intro): the entire
// enclave stays resident and every enclave-managed fault is an attack. It
// is automatic for workloads that fit in EPC (Table 2: Hunspell with one
// dictionary, FreeType, libjpeg's streaming working set).
type PinAllPolicy struct{}

// NewPinAllPolicy returns the pin-everything policy.
func NewPinAllPolicy() *PinAllPolicy { return &PinAllPolicy{} }

// Name implements Policy.
func (*PinAllPolicy) Name() string { return "pin-all" }

// PlanFetch implements Policy: no fault is ever legitimate.
func (*PinAllPolicy) PlanFetch(_ *Runtime, va mmu.VAddr) ([]mmu.VAddr, error) {
	return nil, fmt.Errorf("pin-all: fault on pinned page %s", va)
}

// PickVictims implements Policy: nothing is evictable.
func (*PinAllPolicy) PickVictims(*Runtime, int) []mmu.VAddr { return nil }

// OnOSFault implements Policy: OS-managed faults are forwarded freely.
func (*PinAllPolicy) OnOSFault(*Runtime, mmu.VAddr) error { return nil }

// OnFetched implements Policy.
func (*PinAllPolicy) OnFetched(*Runtime, []mmu.VAddr) {}

// OnEvicted implements Policy.
func (*PinAllPolicy) OnEvicted(*Runtime, []mmu.VAddr) {}

// --- Rate-limited demand paging (§5.2.4) ----------------------------------

// RateLimitPolicy implements bounded-leakage demand paging for unmodified
// binaries: enclave-managed data pages are demand-paged page-by-page (FIFO
// eviction), and the total fault rate is bounded against an
// application-specific progress measure. Exceeding the bound terminates the
// enclave; leakage is limited to cold-page accesses below the bound.
type RateLimitPolicy struct {
	// FaultsPerProgress is the permitted faults per unit of application
	// progress; Burst is the allowance before any progress is reported.
	// A zero FaultsPerProgress with zero Burst disables all faulting.
	FaultsPerProgress float64
	Burst             uint64

	// EvictBatch, when >1, evicts at least that many pages per pressure
	// event, batching the EWB dance like the Intel driver's 16-page
	// batches (§7.1 normalizes latency to a single page of such batches).
	EvictBatch int

	faults uint64
}

// NewRateLimitPolicy builds a rate limiter allowing burst faults up front
// plus perProgress faults per reported progress unit.
func NewRateLimitPolicy(perProgress float64, burst uint64) *RateLimitPolicy {
	return &RateLimitPolicy{FaultsPerProgress: perProgress, Burst: burst}
}

// Name implements Policy.
func (*RateLimitPolicy) Name() string { return "rate-limit" }

// Faults reports the faults counted so far.
func (p *RateLimitPolicy) Faults() uint64 { return p.faults }

func (p *RateLimitPolicy) admit(r *Runtime, va mmu.VAddr) error {
	p.faults++
	allowed := float64(p.Burst) + p.FaultsPerProgress*float64(r.Progress())
	if float64(p.faults) > allowed {
		r.m.Inc(metrics.CntRateStalls)
		return fmt.Errorf("%w: %d faults exceed bound %.0f at progress %d (page %s)",
			ErrRateLimited, p.faults, allowed, r.Progress(), va)
	}
	r.m.Inc(metrics.CntRateGrants)
	return nil
}

// PlanFetch implements Policy: fetch exactly the faulting page, counted
// against the rate bound.
func (p *RateLimitPolicy) PlanFetch(r *Runtime, va mmu.VAddr) ([]mmu.VAddr, error) {
	if err := p.admit(r, va); err != nil {
		return nil, err
	}
	return r.onePage(va), nil
}

// PickVictims implements Policy with FIFO over resident non-pinned pages.
func (p *RateLimitPolicy) PickVictims(r *Runtime, need int) []mmu.VAddr {
	if p.EvictBatch > need {
		need = p.EvictBatch
	}
	return r.nextFIFOVictims(need)
}

// OnOSFault implements Policy: forwarded faults count against the bound too.
func (p *RateLimitPolicy) OnOSFault(r *Runtime, va mmu.VAddr) error {
	return p.admit(r, va)
}

// OnFetched implements Policy.
func (*RateLimitPolicy) OnFetched(*Runtime, []mmu.VAddr) {}

// OnEvicted implements Policy.
func (*RateLimitPolicy) OnEvicted(*Runtime, []mmu.VAddr) {}

// --- Page clusters (§5.2.3) -------------------------------------------------

// ClusterPolicy fetches and evicts whole page clusters: a fault reveals
// only that some page of the faulting cluster closure was needed.
type ClusterPolicy struct {
	Reg *cluster.Registry
	// Limit, when non-zero, caps faults per progress unit like
	// RateLimitPolicy (clusters and rate limiting compose).
	Limit *RateLimitPolicy

	// fifo of cluster IDs by last fetch, for victim selection.
	fifo []cluster.ID
}

// NewClusterPolicy builds a cluster policy over a registry.
func NewClusterPolicy(reg *cluster.Registry) *ClusterPolicy {
	return &ClusterPolicy{Reg: reg}
}

// Name implements Policy.
func (*ClusterPolicy) Name() string { return "page-clusters" }

// PlanFetch implements Policy: the transitive closure of clusters sharing
// pages with the faulting page's clusters — the invariant-preserving fetch
// set. An unclustered enclave-managed page is fetched alone.
func (p *ClusterPolicy) PlanFetch(r *Runtime, va mmu.VAddr) ([]mmu.VAddr, error) {
	if p.Limit != nil {
		if err := p.Limit.admit(r, va); err != nil {
			return nil, err
		}
	}
	vpns := p.Reg.Closure(va.VPN())
	out := make([]mmu.VAddr, 0, len(vpns))
	for _, vpn := range vpns {
		pva := mmu.PageOf(vpn)
		if _, managed := r.PageResident(pva); managed {
			out = append(out, pva)
		}
	}
	return out, nil
}

// PickVictims implements Policy: evict the oldest-fetched whole clusters
// until enough pages are freed, then fall back to FIFO — expanding each
// fallback victim to every whole cluster containing it, because evicting a
// page while its cluster-mates stay resident would break the invariant and
// leak. Evicting whole clusters (even sharing pages) is always safe
// (§5.2.3).
func (p *ClusterPolicy) PickVictims(r *Runtime, need int) []mmu.VAddr {
	return p.pickVictims(r, need, r.nextFIFOVictims)
}

// pickVictims is PickVictims over an explicit FIFO victim source, so tests
// can check the runtime's queue against a reference implementation.
func (p *ClusterPolicy) pickVictims(r *Runtime, need int, nextFIFO func(n int) []mmu.VAddr) []mmu.VAddr {
	var out []mmu.VAddr
	seen := make(map[uint64]struct{})
	addResident := func(vpn uint64) {
		if _, dup := seen[vpn]; dup {
			return
		}
		seen[vpn] = struct{}{}
		pva := mmu.PageOf(vpn)
		if resident, managed := r.PageResident(pva); managed && resident {
			out = append(out, pva)
		}
	}
	addWholeClustersOf := func(vpn uint64) {
		ids := p.Reg.GetClusterIDs(vpn)
		if len(ids) == 0 {
			addResident(vpn) // unclustered: a single page is safe
			return
		}
		for _, id := range ids {
			if c, ok := p.Reg.Cluster(id); ok {
				for _, q := range c.Pages() {
					addResident(q)
				}
			}
		}
	}
	for len(out) < need && len(p.fifo) > 0 {
		cid := p.fifo[0]
		p.fifo = p.fifo[1:]
		c, ok := p.Reg.Cluster(cid)
		if !ok {
			continue
		}
		for _, vpn := range c.Pages() {
			addResident(vpn)
		}
	}
	for len(out) < need {
		candidates := nextFIFO(1)
		if len(candidates) == 0 {
			break
		}
		addWholeClustersOf(candidates[0].VPN())
	}
	return out
}

// OnOSFault implements Policy.
func (p *ClusterPolicy) OnOSFault(r *Runtime, va mmu.VAddr) error {
	if p.Limit != nil {
		return p.Limit.admit(r, va)
	}
	return nil
}

// OnFetched implements Policy: record fetched clusters in FIFO order.
func (p *ClusterPolicy) OnFetched(r *Runtime, pages []mmu.VAddr) {
	seen := make(map[cluster.ID]struct{})
	for _, id := range p.fifo {
		seen[id] = struct{}{}
	}
	for _, va := range pages {
		for _, id := range p.Reg.GetClusterIDs(va.VPN()) {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				p.fifo = append(p.fifo, id)
				r.m.Inc(metrics.CntClusterSwapIns)
			}
		}
	}
}

// OnEvicted implements Policy: count the distinct clusters leaving EPC.
func (p *ClusterPolicy) OnEvicted(r *Runtime, pages []mmu.VAddr) {
	seen := make(map[cluster.ID]struct{})
	for _, va := range pages {
		for _, id := range p.Reg.GetClusterIDs(va.VPN()) {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				r.m.Inc(metrics.CntClusterSwapOuts)
			}
		}
	}
}

// --- ORAM front (§5.2.2) -----------------------------------------------------

// ORAMPolicy is the runtime-side stance when data lives behind the cached
// software ORAM: every ORAM structure page (cache, position map, stash) is
// enclave-managed and pinned, so no enclave-managed fault is ever
// legitimate; obliviousness is provided by the ORAM layer itself
// (internal/oram), not by the fault handler.
type ORAMPolicy struct{}

// NewORAMPolicy returns the ORAM stance.
func NewORAMPolicy() *ORAMPolicy { return &ORAMPolicy{} }

// Name implements Policy.
func (*ORAMPolicy) Name() string { return "oram" }

// PlanFetch implements Policy: with everything pinned, any fault is an
// attack.
func (*ORAMPolicy) PlanFetch(_ *Runtime, va mmu.VAddr) ([]mmu.VAddr, error) {
	return nil, fmt.Errorf("oram: fault on pinned ORAM page %s", va)
}

// PickVictims implements Policy.
func (*ORAMPolicy) PickVictims(*Runtime, int) []mmu.VAddr { return nil }

// OnOSFault implements Policy.
func (*ORAMPolicy) OnOSFault(*Runtime, mmu.VAddr) error { return nil }

// OnFetched implements Policy.
func (*ORAMPolicy) OnFetched(*Runtime, []mmu.VAddr) {}

// OnEvicted implements Policy.
func (*ORAMPolicy) OnEvicted(*Runtime, []mmu.VAddr) {}
