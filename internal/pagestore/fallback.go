package pagestore

import (
	"errors"
	"fmt"

	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// FallbackBackend degrades gracefully when the primary storage stack stops
// answering: every eviction is mirrored into a secondary stack first, and a
// fetch (or eviction) the primary refuses with ErrUnavailable is served by
// the mirror instead of surfacing upward. Integrity failures are *not*
// masked — the secondary only answers availability problems; a tampered
// blob still reaches the sealing checks and still terminates the enclave.
//
// The mirror costs one blob copy per eviction (CntBackendMirrors) — the
// price of the redundancy — and every operation the secondary absorbs is
// counted in CntBackendFallbacks. A fetch also falls back on ErrNotFound:
// when the primary was unavailable at eviction time, the only copy of the
// blob lives in the mirror.
//
// A page whose latest eviction reached the mirror only is remembered as
// mirror-only until a later eviction reaches the primary or the page is
// dropped: the primary may still hold an older blob for it, which would
// fail its freshness check upstream, so its fetches are served by the
// mirror. The primary is still asked first, exactly as for any other page,
// so the primary's operation sequence — and with it every fault-plan roll —
// is what it would be without the mark; only its answer is discarded.
type FallbackBackend struct {
	primary    PagingBackend
	secondary  PagingBackend
	clock      *sim.Clock
	costs      sim.Costs
	meter      *metrics.Metrics
	mirrorOnly map[storeKey]bool
}

var _ PagingBackend = (*FallbackBackend)(nil)

// NewFallbackBackend layers the degraded-mode mirror over primary.
func NewFallbackBackend(primary, secondary PagingBackend, clock *sim.Clock, costs sim.Costs) *FallbackBackend {
	return &FallbackBackend{
		primary:    primary,
		secondary:  secondary,
		clock:      clock,
		costs:      costs,
		meter:      metrics.Of(clock),
		mirrorOnly: make(map[storeKey]bool),
	}
}

// Name implements PagingBackend.
func (fb *FallbackBackend) Name() string {
	return fmt.Sprintf("fallback(%s|%s)", fb.primary.Name(), fb.secondary.Name())
}

// fallsBack reports whether err is the class of failure the mirror absorbs.
func fallsBack(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrNotFound)
}

// Evict implements PagingBackend: mirror first (so the secondary always
// holds the freshest blob), then the primary; a primary outage degrades to
// mirror-only instead of failing the eviction.
func (fb *FallbackBackend) Evict(enclaveID uint64, va mmu.VAddr, b Blob) error {
	fb.clock.ChargeAs(sim.CatPaging, fb.costs.BlobCopy)
	fb.meter.Inc(metrics.CntBackendMirrors)
	if err := fb.secondary.Evict(enclaveID, va, b); err != nil {
		return err
	}
	if err := fb.primary.Evict(enclaveID, va, b); err != nil {
		if errors.Is(err, ErrUnavailable) {
			fb.meter.Inc(metrics.CntBackendFallbacks)
			fb.mirrorOnly[key(enclaveID, va)] = true
			return nil
		}
		return err
	}
	delete(fb.mirrorOnly, key(enclaveID, va))
	return nil
}

// Fetch implements PagingBackend: primary first, mirror on outage, on a
// blob the primary never received, or for a mirror-only page.
func (fb *FallbackBackend) Fetch(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	b, err := fb.primary.Fetch(enclaveID, va)
	switch {
	case fb.mirrorOnly[key(enclaveID, va)]:
		// Whatever the primary answered is older than the mirror's blob.
	case err == nil:
		return b, nil
	case !fallsBack(err):
		return Blob{}, err
	}
	return fb.fetchMirror(enclaveID, va)
}

// fetchMirror serves one page from the mirror, counting the fallback.
func (fb *FallbackBackend) fetchMirror(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	fb.meter.Inc(metrics.CntBackendFallbacks)
	fb.clock.ChargeAs(sim.CatPaging, fb.costs.BlobCopy)
	return fb.secondary.Fetch(enclaveID, va)
}

// Drop implements PagingBackend: both levels forget the blob; an outage or
// a miss on either side is not an error for a discard.
func (fb *FallbackBackend) Drop(enclaveID uint64, va mmu.VAddr) error {
	if err := fb.secondary.Drop(enclaveID, va); err != nil && !fallsBack(err) {
		return err
	}
	if err := fb.primary.Drop(enclaveID, va); err != nil && !fallsBack(err) {
		return err
	}
	delete(fb.mirrorOnly, key(enclaveID, va))
	return nil
}

// EvictBatch implements PagingBackend, mirroring the whole victim set
// before offering it to the primary.
func (fb *FallbackBackend) EvictBatch(enclaveID uint64, pages []PageBlob) error {
	fb.clock.ChargeAs(sim.CatPaging, uint64(len(pages))*fb.costs.BlobCopy)
	fb.meter.Add(metrics.CntBackendMirrors, uint64(len(pages)))
	if err := fb.secondary.EvictBatch(enclaveID, pages); err != nil {
		return err
	}
	if err := fb.primary.EvictBatch(enclaveID, pages); err != nil {
		if errors.Is(err, ErrUnavailable) {
			// The primary may have stored part of the batch; the mirror
			// holds all of it, so every page is served from there.
			fb.meter.Inc(metrics.CntBackendFallbacks)
			for _, pb := range pages {
				fb.mirrorOnly[key(enclaveID, pb.VA)] = true
			}
			return nil
		}
		return err
	}
	for _, pb := range pages {
		delete(fb.mirrorOnly, key(enclaveID, pb.VA))
	}
	return nil
}

// FetchBatch implements PagingBackend: the primary serves the batch when it
// can; on an outage (or a missing blob) the pages are re-fetched one by one
// through the per-page fallback path, so a single unavailable blob does not
// fail the whole batch. Filling out across successive Fetch calls is safe:
// fetches never recycle or overwrite backend-held buffers (only evictions
// and drops do), so earlier entries stay intact while later pages resolve.
func (fb *FallbackBackend) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []Blob) error {
	err := fb.primary.FetchBatch(enclaveID, pages, out)
	if err == nil {
		if len(fb.mirrorOnly) == 0 {
			return nil
		}
		for i, va := range pages {
			if !fb.mirrorOnly[key(enclaveID, va)] {
				continue
			}
			b, ferr := fb.fetchMirror(enclaveID, va)
			if ferr != nil {
				return wrapBlobErr(ferr, "fetch", enclaveID, va)
			}
			out[i] = b
		}
		return nil
	}
	if !fallsBack(err) {
		return err
	}
	for i, va := range pages {
		b, ferr := fb.Fetch(enclaveID, va)
		if ferr != nil {
			return wrapBlobErr(ferr, "fetch", enclaveID, va)
		}
		out[i] = b
	}
	return nil
}
