package pagestore

import "autarky/internal/mmu"

// PagingBackend is the storage layer beneath every paging path: the
// repository that holds sealed page blobs while their pages are out of EPC.
// Both paging mechanisms end here — the hardware path when EWB hands a
// sealed page to the OS (and ELDU asks for it back), and the SGXv2 software
// path when the runtime moves self-sealed blobs through the driver — so a
// single implementation of this interface serves every eviction/fetch path
// in the system.
//
// Backends compose: the plain *Store is the terminal backend, and wrapping
// backends (the write-back CachedBackend here, the oblivious oram.Backend)
// layer policies on top of any inner backend. Contract for implementations:
//
//   - Determinism: identical call sequences must produce identical state,
//     identical results and identical cycle charges. No map-iteration
//     ordering, no wall-clock, no global state.
//   - Cycle accounting: every cycle a backend charges must go through
//     Clock.ChargeAs / ChargeAmbient / a SetCategory scope so attribution
//     stays exact. A backend that models free in-RAM storage (the plain
//     Store) charges nothing.
//   - Blobs are opaque: a backend never inspects or re-keys ciphertext; the
//     sealing layer alone guarantees confidentiality, integrity and
//     freshness. A backend that loses or reorders blobs is indistinguishable
//     from an attacker and is caught by the unseal checks upstream.
//   - Buffer ownership: the ciphertext of a blob passed to Evict/EvictBatch
//     belongs to the caller and is valid only for the duration of the call —
//     callers seal into reused arenas, so a backend that retains a blob
//     beyond the call (a store slot, a cache entry, an attack archive) must
//     copy it. Symmetrically, the ciphertext of a blob returned by
//     Fetch/FetchBatch belongs to the backend and is valid only until the
//     next operation on the backend stack; callers must unseal (or copy)
//     before issuing another backend call. This is what lets the hot paging
//     paths move sealed pages without allocating per blob.
//
// Evict stores the sealed blob for (enclave, page); Fetch returns the most
// recent blob stored for it (ErrNotFound if none); Drop discards the blob
// after a successful page-in. The batch variants exist so pipelined eviction
// passes can hand a whole victim set to the storage hierarchy at once;
// wrapping backends may use them to amortize their own bookkeeping, but the
// per-blob movement costs they model must not silently disappear.
type PagingBackend interface {
	// Name identifies the backend stack in experiment output ("store",
	// "cache(64)+store", "oram(4096)+store", ...).
	Name() string
	// Evict stores the sealed blob for the page.
	Evict(enclaveID uint64, va mmu.VAddr, b Blob) error
	// Fetch returns the current sealed blob for the page.
	Fetch(enclaveID uint64, va mmu.VAddr) (Blob, error)
	// Drop discards the blob for the page (after a successful restore).
	Drop(enclaveID uint64, va mmu.VAddr) error
	// EvictBatch stores a whole victim set in one pipelined pass.
	EvictBatch(enclaveID uint64, pages []PageBlob) error
	// FetchBatch fills out[i] with the blob for pages[i]. out must be at
	// least len(pages) long; the caller provides (and reuses) it so batch
	// fetches move no slice headers through the heap. On error the contents
	// of out are unspecified.
	FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []Blob) error
}

// PageBlob pairs one page address with its sealed contents for batch
// eviction.
type PageBlob struct {
	VA   mmu.VAddr
	Blob Blob
}

// --- plain Store as the terminal backend ----------------------------------

var _ PagingBackend = (*Store)(nil)

// Name implements PagingBackend.
func (st *Store) Name() string { return "store" }

// Evict implements PagingBackend over Put. The plain store models ordinary
// untrusted RAM: the copy cost is already part of the EWB/driver-call costs
// charged by the callers, so it charges nothing itself.
func (st *Store) Evict(enclaveID uint64, va mmu.VAddr, b Blob) error {
	st.Put(enclaveID, va, b)
	return nil
}

// Fetch implements PagingBackend over Get.
func (st *Store) Fetch(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	return st.Get(enclaveID, va)
}

// Drop implements PagingBackend over Delete.
func (st *Store) Drop(enclaveID uint64, va mmu.VAddr) error {
	st.Delete(enclaveID, va)
	return nil
}

// EvictBatch implements PagingBackend.
func (st *Store) EvictBatch(enclaveID uint64, pages []PageBlob) error {
	for _, pb := range pages {
		st.Put(enclaveID, pb.VA, pb.Blob)
	}
	return nil
}

// FetchBatch implements PagingBackend. A missing blob is reported with its
// key attached (BlobError), so the caller knows which page of the batch
// failed.
func (st *Store) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []Blob) error {
	for i, va := range pages {
		b, err := st.Get(enclaveID, va)
		if err != nil {
			return wrapBlobErr(err, "fetch", enclaveID, va)
		}
		out[i] = b
	}
	return nil
}
