package pagestore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"autarky/internal/mmu"
)

var secret = []byte("test-root-secret")

func page(b byte) []byte {
	p := make([]byte, mmu.PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestSealOpenRoundTrip(t *testing.T) {
	s, err := NewSealer(secret, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := page(0xab)
	blob, err := s.Seal(0x1000, 1, plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(0x1000, 1, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("roundtrip corrupted data")
	}
}

func TestSealRejectsWrongSize(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	if _, err := s.Seal(0x1000, 1, []byte("short")); err == nil {
		t.Fatal("sealed a non-page buffer")
	}
}

func TestOpenRejectsWrongVersion(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	blob, _ := s.Seal(0x1000, 3, page(1))
	if _, err := s.Open(0x1000, 4, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("stale version accepted: %v", err)
	}
}

func TestOpenRejectsWrongAddress(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	blob, _ := s.Seal(0x1000, 1, page(1))
	if _, err := s.Open(0x2000, 1, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("relocated blob accepted: %v", err)
	}
}

func TestOpenRejectsCrossEnclaveBlob(t *testing.T) {
	s1, _ := NewSealer(secret, 1)
	s2, _ := NewSealer(secret, 2)
	blob, _ := s1.Seal(0x1000, 1, page(1))
	if _, err := s2.Open(0x1000, 1, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("cross-enclave blob accepted: %v", err)
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	blob, _ := s.Seal(0x1000, 1, page(1))
	blob.Ciphertext[10] ^= 1
	if _, err := s.Open(0x1000, 1, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered blob accepted: %v", err)
	}
}

func TestSealerKeysDifferPerEnclave(t *testing.T) {
	s1, _ := NewSealer(secret, 1)
	s2, _ := NewSealer(secret, 2)
	p := page(7)
	b1, _ := s1.Seal(0x1000, 1, p)
	b2, _ := s2.Seal(0x1000, 1, p)
	if bytes.Equal(b1.Ciphertext, b2.Ciphertext) {
		t.Fatal("two enclaves produced identical ciphertexts")
	}
}

func TestStorePutGetDelete(t *testing.T) {
	st := NewStore()
	b := Blob{Ciphertext: []byte{1, 2, 3}, Version: 1}
	st.Put(1, 0x1000, b)
	got, err := st.Get(1, 0x1000)
	if err != nil || got.Version != 1 {
		t.Fatalf("get: %v %v", got, err)
	}
	if _, err := st.Get(1, 0x2000); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing blob: %v", err)
	}
	if _, err := st.Get(2, 0x1000); !errors.Is(err, ErrNotFound) {
		t.Fatal("blob visible across enclaves")
	}
	st.Delete(1, 0x1000)
	if _, err := st.Get(1, 0x1000); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete failed")
	}
}

func TestStoreLen(t *testing.T) {
	st := NewStore()
	st.Put(1, 0x1000, Blob{})
	st.Put(1, 0x2000, Blob{})
	st.Put(1, 0x1000, Blob{}) // overwrite
	if st.Len() != 2 {
		t.Fatalf("Len = %d", st.Len())
	}
}

func TestStoreReplayAttackDetected(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	st := NewStore()
	v1, _ := s.Seal(0x1000, 1, page(1))
	v2, _ := s.Seal(0x1000, 2, page(2))
	st.Put(1, 0x1000, v1)
	st.Put(1, 0x1000, v2)
	if !st.Replay(1, 0x1000) {
		t.Fatal("replay found no history")
	}
	blob, _ := st.Get(1, 0x1000)
	// The trusted side expects version 2; the replayed v1 must fail.
	if _, err := s.Open(0x1000, 2, blob); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replayed blob accepted: %v", err)
	}
}

func TestStoreReplayWithoutHistory(t *testing.T) {
	st := NewStore()
	if st.Replay(1, 0x1000) {
		t.Fatal("replay of a never-stored page succeeded")
	}
	st.Put(1, 0x1000, Blob{Ciphertext: []byte{1}})
	if st.Replay(1, 0x1000) {
		t.Fatal("replay succeeded with no archived blob")
	}
	// Exactly one Put, then a drop: still nothing older to replay, and the
	// failed replay must not resurrect the page.
	st.Delete(1, 0x1000)
	if st.Replay(1, 0x1000) {
		t.Fatal("replay succeeded after exactly one Put")
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d after a failed replay of a dropped page, want 0", st.Len())
	}
}

func TestStoreCorrupt(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	st := NewStore()
	blob, _ := s.Seal(0x1000, 1, page(3))
	st.Put(1, 0x1000, blob)
	if !st.Corrupt(1, 0x1000) {
		t.Fatal("corrupt failed")
	}
	got, _ := st.Get(1, 0x1000)
	if _, err := s.Open(0x1000, 1, got); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted blob accepted: %v", err)
	}
	if st.Corrupt(1, 0x9000) {
		t.Fatal("corrupted a missing blob")
	}
}

// TestOpenDistinguishesFailureModes locks the refined unseal taxonomy: each
// attack class yields its own sentinel, every sentinel wraps ErrIntegrity
// (so security decisions never depend on the refinement), and the
// refinements never match each other.
func TestOpenDistinguishesFailureModes(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	other, _ := NewSealer(secret, 2)
	good, _ := s.Seal(0x1000, 2, page(0xaa))

	truncated := good
	truncated.Ciphertext = good.Ciphertext[:8]

	flipped := good
	flipped.Ciphertext = append([]byte(nil), good.Ciphertext...)
	flipped.Ciphertext[0] ^= 0xff

	stale, _ := s.Seal(0x1000, 1, page(0xaa)) // opened expecting version 2

	foreign, _ := other.Seal(0x1000, 2, page(0xaa))

	cases := []struct {
		name string
		blob Blob
		want error
	}{
		{"truncated", truncated, ErrTruncated},
		{"bit-flipped", flipped, ErrIntegrity},
		{"replayed stale version", stale, ErrStaleVersion},
		{"wrong enclave", foreign, ErrWrongEnclave},
	}
	refinements := []error{ErrTruncated, ErrStaleVersion, ErrWrongEnclave}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Open(0x1000, 2, tc.blob)
			if err == nil {
				t.Fatal("attacked blob unsealed")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("error %v does not wrap ErrIntegrity", err)
			}
			// No refinement may claim an attack it did not diagnose.
			for _, ref := range refinements {
				if ref != tc.want && errors.Is(err, ref) {
					t.Fatalf("error %v also matches unrelated %v", err, ref)
				}
			}
		})
	}
}

func TestSealOpenProperty(t *testing.T) {
	s, _ := NewSealer(secret, 9)
	if err := quick.Check(func(vpn uint16, version uint64, fill byte) bool {
		va := mmu.PageOf(uint64(vpn))
		blob, err := s.Seal(va, version, page(fill))
		if err != nil {
			return false
		}
		got, err := s.Open(va, version, blob)
		return err == nil && bytes.Equal(got, page(fill))
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReplayAfterDrop(t *testing.T) {
	st := NewStore()
	v1 := Blob{Ciphertext: []byte{1, 1}, Version: 1}
	st.Put(1, 0x1000, v1)
	st.Put(1, 0x1000, Blob{Ciphertext: []byte{2, 2}, Version: 2})
	st.Delete(1, 0x1000)
	if st.Len() != 0 {
		t.Fatalf("Len after drop = %d, want 0", st.Len())
	}
	// The archive outlives the drop: the attacker re-plants the oldest blob.
	if !st.Replay(1, 0x1000) {
		t.Fatal("replay of a dropped page found no archive")
	}
	got, err := st.Get(1, 0x1000)
	if err != nil || got.Version != 1 || !bytes.Equal(got.Ciphertext, v1.Ciphertext) {
		t.Fatalf("replayed blob = %+v, %v; want the first blob", got, err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len after replaying a dropped page = %d, want 1", st.Len())
	}
}

func TestStoreReplayAfterCorrupt(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	v1, _ := s.Seal(0x1000, 1, page(1))
	v2, _ := s.Seal(0x1000, 2, page(2))
	st := NewStore()
	// The first blob is the archive, and the current blob shares its
	// buffer: corrupting the current blob must leave the archive pristine.
	st.Put(1, 0x1000, v1)
	if !st.Corrupt(1, 0x1000) {
		t.Fatal("corrupt failed")
	}
	st.Put(1, 0x1000, v2)
	if !st.Corrupt(1, 0x1000) {
		t.Fatal("corrupt failed")
	}
	if !st.Replay(1, 0x1000) {
		t.Fatal("replay found no archive")
	}
	got, _ := st.Get(1, 0x1000)
	if plain, err := s.Open(0x1000, 1, got); err != nil || !bytes.Equal(plain, page(1)) {
		t.Fatalf("archived blob damaged by Corrupt: %v", err)
	}
	// Corrupting the replayed blob works on a copy too.
	if !st.Corrupt(1, 0x1000) || !st.Replay(1, 0x1000) {
		t.Fatal("corrupt/replay of a replayed blob failed")
	}
	got, _ = st.Get(1, 0x1000)
	if _, err := s.Open(0x1000, 1, got); err != nil {
		t.Fatalf("archived blob damaged by Corrupt of a replayed blob: %v", err)
	}
}

// TestStoreRetentionBoundedPerPage evicts one page many times and checks
// the store's retained heap does not grow with the eviction count: a page
// costs its current blob and its archived first blob, however often it is
// evicted.
func TestStoreRetentionBoundedPerPage(t *testing.T) {
	s, _ := NewSealer(secret, 1)
	blob, _ := s.Seal(0x1000, 1, page(7))
	st := NewStore()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	evict := func(n int) {
		for i := 0; i < n; i++ {
			st.Put(1, 0x1000, blob)
			st.Delete(1, 0x1000)
		}
	}
	evict(16)
	before := heap()
	const n = 2048 // an archive of every blob would retain ~8 MB
	evict(n)
	after := heap()
	runtime.KeepAlive(st)
	if after > before && after-before > 64<<10 {
		t.Fatalf("retained heap grew by %d bytes over %d evictions of one page", after-before, n)
	}
}
