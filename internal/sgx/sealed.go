package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"autarky/internal/mmu"
	"autarky/internal/sim"
)

// This file models the platform's sealed-state service: an enclave's
// captured state (pages, version counters, progress) is sealed under a key
// derived from the platform root secret — the same EGETKEY-style derivation
// that keys per-enclave page sealing, under a distinct label — so the state
// is opaque and tamper-evident to the OS (or network) that carries it.
// A tampered or truncated envelope fails authentication; it can never
// rebuild a subtly-wrong enclave. (Cf. "Migrating SGX Enclaves with
// Persistent State": sealed, versioned enclave state re-instantiated after a
// crash or on another machine.)
//
// Checkpoints and migrations are one envelope sealed under two keys.
// Framing (everything after the nonce is authenticated):
//
//	nonce(12) || epoch(8) || measurement(32) || ciphertext
//
// The epoch and source measurement ride in the clear — the counter service
// and the destination must read them before decrypting — but they are bound
// into the AEAD's additional data together with the key label, so tampering
// with either voids the seal. A checkpoint carries epoch 0; a migration
// carries its freshness epoch. Because the keys differ, a checkpoint never
// opens as a migration and a migration never opens as a checkpoint.
//
// The rebuilt enclave gets a fresh identity and hence a fresh page sealing
// key — a restart is *detectable*, exactly as the paper's threat model
// requires (§3) — so captured pages are re-encrypted under the new
// incarnation's key by replaying them through the normal write path, never
// by reusing old blobs.

// ErrBadCheckpoint is returned when a sealed-state envelope (checkpoint or
// migration) fails its authentication or framing checks.
var ErrBadCheckpoint = errors.New("sgx: checkpoint blob failed integrity check")

// StateKey selects the platform key a sealed-state envelope is sealed under.
type StateKey int

const (
	// CheckpointKey seals recovery checkpoints (epoch 0, source kept).
	CheckpointKey StateKey = iota
	// MigrationKey seals migration envelopes (freshness epoch, source
	// retired).
	MigrationKey
	numStateKeys
)

// stateLabels separate the sealed-state keys from each other and from every
// page sealing key derived from the same root secret.
var stateLabels = [numStateKeys]string{
	CheckpointKey: "autarky-checkpoint-v1",
	MigrationKey:  "autarky-migration-v1",
}

// stateHeaderLen is the envelope prefix: nonce, epoch, source measurement.
const stateHeaderLen = 12 + 8 + 32

// stateAEAD derives (once per key) and caches a platform sealed-state key:
// sealing sits on the quiesce hot path and must not allocate per call.
func (c *CPU) stateAEAD(key StateKey) (cipher.AEAD, error) {
	if aead := c.sealAEAD[key]; aead != nil {
		return aead, nil
	}
	h := sha256.New()
	h.Write(c.rootSecret)
	h.Write([]byte(stateLabels[key]))
	block, err := aes.NewCipher(h.Sum(nil)[:16])
	if err != nil {
		return nil, fmt.Errorf("sgx: deriving %s key: %w", stateLabels[key], err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	c.sealAEAD[key] = aead
	return aead, nil
}

// stateAAD assembles the additional data binding an envelope's clear header
// (and its key label) to its ciphertext, into the CPU's reused scratch.
func (c *CPU) stateAAD(key StateKey, epoch uint64, meas [32]byte) []byte {
	aad := c.sealAAD[:0]
	aad = append(aad, stateLabels[key]...)
	aad = binary.LittleEndian.AppendUint64(aad, epoch)
	aad = append(aad, meas[:]...)
	c.sealAAD = aad
	return aad
}

// SealState seals an enclave's captured state into an envelope appended to
// dst, charging the software encryption cost per covered page. epoch is the
// envelope's freshness counter (0 for a checkpoint; the source enclave's
// migration epoch plus one for a migration) and meas the source
// measurement; both are carried in the clear but authenticated. dst grows
// at most once, to the envelope's exact size; with the cached AEAD, sealing
// allocates nothing when dst already has the capacity.
func (c *CPU) SealState(dst []byte, key StateKey, epoch uint64, meas [32]byte, payload []byte) ([]byte, error) {
	aead, err := c.stateAEAD(key)
	if err != nil {
		return nil, err
	}
	dst = slices.Grow(dst, stateHeaderLen+len(payload)+aead.Overhead())
	c.sealSeq[key]++
	// Every machine derived from the same root secret shares these keys, so
	// the nonce mixes this platform's boot salt with its per-key sequence:
	// two machines sealing under one key never collide.
	start := len(dst)
	dst = append(dst, make([]byte, 12)...)
	nonce := dst[start : start+12]
	binary.LittleEndian.PutUint64(nonce[:8], c.sealSeq[key])
	binary.LittleEndian.PutUint32(nonce[8:12], uint32(c.instanceSalt))
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = append(dst, meas[:]...)
	c.Clock.ChargeAs(sim.CatCrypto, pagesOf(len(payload))*c.Costs.SWEncryptPage)
	return aead.Seal(dst, nonce, payload, c.stateAAD(key, epoch, meas)), nil
}

// OpenState authenticates and decrypts an envelope sealed under key,
// returning its epoch, the source measurement and the plaintext state, and
// charging the software decryption cost per covered page. Any structural
// defect — truncation, tampering with the clear header or the ciphertext,
// an envelope sealed under the other key — fails with ErrBadCheckpoint;
// freshness is the counter service's job, not this routine's.
func (c *CPU) OpenState(key StateKey, sealed []byte) (epoch uint64, meas [32]byte, plain []byte, err error) {
	aead, aerr := c.stateAEAD(key)
	if aerr != nil {
		return 0, meas, nil, aerr
	}
	if len(sealed) < stateHeaderLen+aead.Overhead() {
		return 0, meas, nil, fmt.Errorf("%w: %d bytes is shorter than any sealed state",
			ErrBadCheckpoint, len(sealed))
	}
	nonce := sealed[:12]
	epoch = binary.LittleEndian.Uint64(sealed[12:20])
	copy(meas[:], sealed[20:stateHeaderLen])
	c.Clock.ChargeAs(sim.CatCrypto, pagesOf(len(sealed)-stateHeaderLen)*c.Costs.SWDecryptPage)
	plain, err = aead.Open(nil, nonce, sealed[stateHeaderLen:], c.stateAAD(key, epoch, meas))
	if err != nil {
		return 0, meas, nil, fmt.Errorf("%w: envelope failed authentication", ErrBadCheckpoint)
	}
	return epoch, meas, plain, nil
}

// pagesOf rounds a byte count up to whole pages for cost charging.
func pagesOf(n int) uint64 {
	return (uint64(n) + mmu.PageSize - 1) / mmu.PageSize
}
