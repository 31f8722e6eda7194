// Package pagestore implements the untrusted backing store for evicted
// enclave pages, together with the trusted sealing primitive that protects
// their confidentiality, integrity and freshness.
//
// It models two things from the paper:
//
//   - the EWB/ELDU hardware paging path, which "guarantees the integrity of
//     the swapped out contents, and protects against replay attacks"
//     (paper §2.1) using per-page version counters held in trusted VA pages;
//   - the SGXv2 software self-paging path, where "enclave software
//     implement[s] custom encryption" (paper §5.2.1) and stores page
//     contents "securely (encrypted and signed) in untrusted memory" (§6).
//
// Sealing uses AES-128-GCM with a per-enclave key. The nonce binds the
// page's virtual page number and its eviction version, and the additional
// data binds the enclave identity, so a blob can only be restored to the
// address it was evicted from, at the version the trusted side expects.
package pagestore

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"autarky/internal/mmu"
)

// Errors returned by Open.
var (
	// ErrIntegrity indicates the blob failed authentication: it was
	// tampered with, replayed (stale version), or bound to a different page.
	// Every refined unseal error below wraps it, so errors.Is(err,
	// ErrIntegrity) still matches the whole class.
	ErrIntegrity = errors.New("pagestore: page blob failed integrity/freshness check")
	// ErrNotFound indicates no blob is stored for the page.
	ErrNotFound = errors.New("pagestore: no blob for page")

	// The refined classifications are diagnostic: they are derived from the
	// blob's untrusted advisory fields, so an attacker can always disguise
	// one failure as another — but never as success, because the AEAD check
	// against the trusted version counter remains the sole authority.

	// ErrTruncated: the ciphertext is shorter than a sealed page can be.
	ErrTruncated = fmt.Errorf("%w: blob truncated", ErrIntegrity)
	// ErrStaleVersion: the blob advertises an eviction version older (or
	// newer) than the trusted counter expects — the shape of a replay.
	ErrStaleVersion = fmt.Errorf("%w: blob version is stale (replay?)", ErrIntegrity)
	// ErrWrongEnclave: the blob advertises another enclave's identity — it
	// was sealed under a different key and can never authenticate here.
	ErrWrongEnclave = fmt.Errorf("%w: blob sealed for a different enclave", ErrIntegrity)

	// ErrUnavailable indicates the backing store transiently refused the
	// operation (an injected outage, a withheld blob). It is an availability
	// failure, not an integrity one — it deliberately does not wrap
	// ErrIntegrity, because the right response is retry/fallback, not
	// termination-as-compromised.
	ErrUnavailable = errors.New("pagestore: backing store unavailable")
)

// BlobError attaches the failing blob's key to an error crossing a batch
// boundary, so callers of EvictBatch/FetchBatch learn which page in the
// batch failed rather than just that something did.
type BlobError struct {
	EnclaveID uint64
	VA        mmu.VAddr
	Op        string // "evict", "fetch", "drop"
	Err       error
}

// Error implements error.
func (e *BlobError) Error() string {
	return fmt.Sprintf("pagestore: %s enclave %d page %#x: %v", e.Op, e.EnclaveID, uint64(e.VA.PageBase()), e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BlobError) Unwrap() error { return e.Err }

// wrapBlobErr attaches the key unless the error already carries one (inner
// layers wrap first; outer layers pass the inner attribution through).
func wrapBlobErr(err error, op string, enclaveID uint64, va mmu.VAddr) error {
	if err == nil {
		return nil
	}
	var be *BlobError
	if errors.As(err, &be) {
		return err
	}
	return &BlobError{EnclaveID: enclaveID, VA: va, Op: op, Err: err}
}

// Blob is one sealed page as held in untrusted memory.
type Blob struct {
	Ciphertext []byte // AES-GCM ciphertext || tag
	// Version as claimed by the untrusted store. The trusted side never
	// relies on it; it is advisory (the real freshness check is the MAC
	// binding of the trusted version counter). Open uses it only to refine
	// an inevitable failure into ErrStaleVersion.
	Version uint64
	// EnclaveID as claimed by the untrusted store — advisory like Version
	// (the real binding is the per-enclave key and AAD). Open uses it only
	// to refine an inevitable failure into ErrWrongEnclave.
	EnclaveID uint64
}

// Sealer seals and opens pages for one enclave. It is trusted state: in the
// EWB/ELDU model it lives inside the CPU; in the SGXv2 software model it
// lives inside the enclave runtime.
//
// A Sealer is not safe for concurrent use: the nonce and AAD scratch below
// is reused across calls so the hot paging paths never allocate for header
// material. Every enclave owns its own Sealer, and the simulation is
// single-threaded per machine, so this costs nothing in practice.
type Sealer struct {
	aead      cipher.AEAD
	enclaveID uint64

	// Reusable header scratch. The AEAD reads nonce and additional data
	// during the call and never retains them, so handing out views of these
	// arrays is safe.
	nonceBuf [12]byte
	aadBuf   [24]byte
}

// NewSealer derives a sealing key for the enclave from a root secret.
// The derivation is a model of SGX's EGETKEY: deterministic per enclave,
// unknown to the OS.
func NewSealer(rootSecret []byte, enclaveID uint64) (*Sealer, error) {
	h := sha256.New()
	h.Write(rootSecret)
	var idb [8]byte
	binary.LittleEndian.PutUint64(idb[:], enclaveID)
	h.Write(idb[:])
	key := h.Sum(nil)[:16]
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("pagestore: deriving sealing key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pagestore: building AEAD: %w", err)
	}
	return &Sealer{aead: aead, enclaveID: enclaveID}, nil
}

func (s *Sealer) nonce(va mmu.VAddr, version uint64) []byte {
	n := s.nonceBuf[:]
	binary.LittleEndian.PutUint32(n[0:4], uint32(va.VPN()))
	binary.LittleEndian.PutUint64(n[4:12], version)
	return n
}

func (s *Sealer) aad(va mmu.VAddr, version uint64) []byte {
	a := s.aadBuf[:]
	binary.LittleEndian.PutUint64(a[0:8], s.enclaveID)
	binary.LittleEndian.PutUint64(a[8:16], uint64(va.PageBase()))
	binary.LittleEndian.PutUint64(a[16:24], version)
	return a
}

// EnclaveID returns the enclave identity the sealer was derived for, for
// callers assembling Blob metadata around SealAppend output.
func (s *Sealer) EnclaveID() uint64 { return s.enclaveID }

// SealedLen is the exact ciphertext length of one sealed page. Callers
// sizing arenas for SealAppend can rely on every sealed page occupying
// exactly this many bytes.
func (s *Sealer) SealedLen() int { return mmu.PageSize + s.aead.Overhead() }

// SealAppend encrypts one page for (va, version) and appends the ciphertext
// (including the tag) to dst, returning the extended slice. When dst has
// SealedLen spare capacity the call does not allocate, which is what keeps
// the paging hot paths allocation-free; the returned bytes never alias
// Sealer-internal state. len(plain) must be PageSize.
func (s *Sealer) SealAppend(dst []byte, va mmu.VAddr, version uint64, plain []byte) ([]byte, error) {
	if len(plain) != mmu.PageSize {
		return nil, fmt.Errorf("pagestore: sealing %d bytes, want %d", len(plain), mmu.PageSize)
	}
	return s.aead.Seal(dst, s.nonce(va, version), plain, s.aad(va, version)), nil
}

// Seal encrypts one page for (va, version) into a freshly allocated blob.
// len(plain) must be PageSize. Hot paths should prefer SealAppend with a
// reused buffer.
func (s *Sealer) Seal(va mmu.VAddr, version uint64, plain []byte) (Blob, error) {
	ct, err := s.SealAppend(nil, va, version, plain)
	if err != nil {
		return Blob{}, err
	}
	return Blob{Ciphertext: ct, Version: version, EnclaveID: s.enclaveID}, nil
}

// OpenAppend decrypts a blob that must have been sealed for exactly
// (va, expectVersion), appending the plaintext page to dst and returning the
// extended slice. When dst has PageSize spare capacity the call does not
// allocate. The returned bytes live in dst's backing array (never in
// Sealer-internal scratch), so reusing the same buffer across calls is safe
// as long as the previous result has been consumed.
//
// Any tampered, replayed or mis-bound blob fails with an error matching
// ErrIntegrity; when the blob's (untrusted, advisory) metadata reveals the
// failure mode, the error is refined to ErrTruncated, ErrStaleVersion or
// ErrWrongEnclave — all of which wrap ErrIntegrity, so the security decision
// never depends on the refinement.
func (s *Sealer) OpenAppend(dst []byte, va mmu.VAddr, expectVersion uint64, b Blob) ([]byte, error) {
	if len(b.Ciphertext) < mmu.PageSize+s.aead.Overhead() {
		return nil, ErrTruncated
	}
	plain, err := s.aead.Open(dst, s.nonce(va, expectVersion), b.Ciphertext, s.aad(va, expectVersion))
	if err != nil {
		switch {
		case b.EnclaveID != s.enclaveID:
			return nil, ErrWrongEnclave
		case b.Version != expectVersion:
			return nil, ErrStaleVersion
		}
		return nil, ErrIntegrity
	}
	return plain, nil
}

// Open decrypts a blob into a freshly allocated page. See OpenAppend for
// the verification semantics; hot paths should prefer OpenAppend with a
// reused buffer.
func (s *Sealer) Open(va mmu.VAddr, expectVersion uint64, b Blob) ([]byte, error) {
	return s.OpenAppend(nil, va, expectVersion, b)
}

// Store is the untrusted in-regular-memory repository of sealed pages, keyed
// by (enclave, page). Being untrusted, it offers mutation hooks (Corrupt,
// Replay) that attack tests use to verify the trusted side rejects bad blobs.
//
// Each page owns one slot for the life of the store, so memory is bounded
// by the number of pages ever evicted, not by how many times they were: a
// slot holds the current blob, the attacker's archived copy of the page's
// first blob, and one reusable buffer that every later Put overwrites.
type Store struct {
	slots map[storeKey]*slot
	n     int // slots with a current blob (what Len reports)
}

// slot is one page's state in the store. It exists from the page's first
// Put onwards; Delete only clears present, keeping both buffers for reuse.
type slot struct {
	cur     Blob // current blob; valid only while present
	present bool
	// archived is the first blob ever stored for the page, kept for the
	// life of the store — the attacker copies blobs as they arrive — so a
	// replay can be staged even across deletes. Replay only ever needs the
	// oldest blob and whether a newer one exists, so that is all the
	// archive keeps: archived, plus the newer mark.
	archived Blob
	newer    bool
	// buf is the slot's working buffer. It never aliases archived, which
	// is what lets Put overwrite it in place.
	buf []byte
}

type storeKey struct {
	enclaveID uint64
	vpn       uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{slots: make(map[storeKey]*slot)}
}

func key(enclaveID uint64, va mmu.VAddr) storeKey {
	return storeKey{enclaveID: enclaveID, vpn: va.VPN()}
}

// Put stores the sealed blob for a page. Per the PagingBackend ownership
// contract the caller's buffer is only valid for the duration of the call,
// so the ciphertext is copied: a page's first blob into a fresh buffer
// shared by the current blob and the archive, every later one into the
// slot's working buffer, overwriting the previous contents in place.
func (st *Store) Put(enclaveID uint64, va mmu.VAddr, b Blob) {
	k := key(enclaveID, va)
	s := st.slots[k]
	if s == nil {
		b.Ciphertext = append(make([]byte, 0, len(b.Ciphertext)), b.Ciphertext...)
		st.slots[k] = &slot{cur: b, present: true, archived: b}
		st.n++
		return
	}
	s.buf = append(s.buf[:0], b.Ciphertext...)
	b.Ciphertext = s.buf
	s.cur = b
	s.newer = true
	if !s.present {
		s.present = true
		st.n++
	}
}

// Get returns the current blob for a page. The ciphertext is a view of the
// slot and is overwritten by the page's next Put.
func (st *Store) Get(enclaveID uint64, va mmu.VAddr) (Blob, error) {
	s := st.slots[key(enclaveID, va)]
	if s == nil || !s.present {
		return Blob{}, ErrNotFound
	}
	return s.cur, nil
}

// Delete removes the blob for a page (after a successful page-in). The
// slot keeps its buffers for the page's next eviction.
func (st *Store) Delete(enclaveID uint64, va mmu.VAddr) {
	if s := st.slots[key(enclaveID, va)]; s != nil && s.present {
		s.present = false
		st.n--
	}
}

// Len reports how many pages are currently swapped out across all enclaves.
func (st *Store) Len() int { return st.n }

// Corrupt flips a byte of the stored ciphertext — an active attack on the
// backing store. The archived blob is never touched: a current blob that
// shares the archive's buffer is first copied into the working buffer.
// Reports whether a blob existed.
func (st *Store) Corrupt(enclaveID uint64, va mmu.VAddr) bool {
	s := st.slots[key(enclaveID, va)]
	if s == nil || !s.present || len(s.cur.Ciphertext) == 0 {
		return false
	}
	s.buf = append(s.buf[:0], s.cur.Ciphertext...)
	s.buf[0] ^= 0xff
	s.cur.Ciphertext = s.buf
	return true
}

// Replay replaces the current blob with the oldest archived one — the
// classic rollback attack — restoring it even if the page was deleted.
// Reports whether an older archived blob existed, that is, whether the page
// was stored at least twice.
func (st *Store) Replay(enclaveID uint64, va mmu.VAddr) bool {
	s := st.slots[key(enclaveID, va)]
	if s == nil || !s.newer {
		return false
	}
	s.cur = s.archived
	if !s.present {
		s.present = true
		st.n++
	}
	return true
}
