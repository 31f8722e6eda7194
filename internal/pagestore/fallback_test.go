package pagestore_test

import (
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// switchable is a primary stack that refuses every operation with
// ErrUnavailable while down, and is a plain store otherwise.
type switchable struct {
	*pagestore.Store
	down bool
}

func (s *switchable) Evict(enclaveID uint64, va mmu.VAddr, b pagestore.Blob) error {
	if s.down {
		return pagestore.ErrUnavailable
	}
	return s.Store.Evict(enclaveID, va, b)
}

func (s *switchable) EvictBatch(enclaveID uint64, pages []pagestore.PageBlob) error {
	if s.down {
		return pagestore.ErrUnavailable
	}
	return s.Store.EvictBatch(enclaveID, pages)
}

func (s *switchable) Fetch(enclaveID uint64, va mmu.VAddr) (pagestore.Blob, error) {
	if s.down {
		return pagestore.Blob{}, pagestore.ErrUnavailable
	}
	return s.Store.Fetch(enclaveID, va)
}

func (s *switchable) FetchBatch(enclaveID uint64, pages []mmu.VAddr, out []pagestore.Blob) error {
	if s.down {
		return pagestore.ErrUnavailable
	}
	return s.Store.FetchBatch(enclaveID, pages, out)
}

// TestFallbackServesMirrorOnlyPages: when the primary is down at an
// eviction, the blob reaches the mirror only, while the primary still holds
// the page's previous blob. Once the primary is back, every fetch path must
// serve the mirror's newer blob, never the primary's stale one — until an
// eviction reaches the primary again or the page is dropped.
func TestFallbackServesMirrorOnlyPages(t *testing.T) {
	const enclaveID = 1
	va := mmu.PageOf(0x100)
	blob := func(v uint64) pagestore.Blob {
		return pagestore.Blob{Ciphertext: []byte{byte(v)}, Version: v, EnclaveID: enclaveID}
	}
	evicts := map[string]func(be pagestore.PagingBackend, b pagestore.Blob) error{
		"evict": func(be pagestore.PagingBackend, b pagestore.Blob) error {
			return be.Evict(enclaveID, va, b)
		},
		"evict-batch": func(be pagestore.PagingBackend, b pagestore.Blob) error {
			return be.EvictBatch(enclaveID, []pagestore.PageBlob{{VA: va, Blob: b}})
		},
	}
	for name, evict := range evicts {
		t.Run(name, func(t *testing.T) {
			primary := &switchable{Store: pagestore.NewStore()}
			fb := pagestore.NewFallbackBackend(primary, pagestore.NewStore(), sim.NewClock(), sim.DefaultCosts())
			want := func(step string, v uint64) {
				t.Helper()
				b, err := fb.Fetch(enclaveID, va)
				if err != nil || b.Version != v {
					t.Fatalf("%s: Fetch = version %d, %v; want version %d", step, b.Version, err, v)
				}
				out := make([]pagestore.Blob, 1)
				if err := fb.FetchBatch(enclaveID, []mmu.VAddr{va}, out); err != nil || out[0].Version != v {
					t.Fatalf("%s: FetchBatch = version %d, %v; want version %d", step, out[0].Version, err, v)
				}
			}

			if err := evict(fb, blob(1)); err != nil {
				t.Fatal(err)
			}
			primary.down = true
			if err := evict(fb, blob(2)); err != nil {
				t.Fatalf("eviction during the outage: %v", err)
			}
			primary.down = false
			want("primary back", 2)

			// An eviction that reaches the primary again ends the mark.
			if err := evict(fb, blob(3)); err != nil {
				t.Fatal(err)
			}
			want("primary current", 3)

			// So does a drop: a blob the primary alone receives afterwards
			// is served from the primary.
			primary.down = true
			if err := evict(fb, blob(4)); err != nil {
				t.Fatal(err)
			}
			primary.down = false
			if err := fb.Drop(enclaveID, va); err != nil {
				t.Fatal(err)
			}
			if err := primary.Store.Evict(enclaveID, va, blob(5)); err != nil {
				t.Fatal(err)
			}
			want("after drop", 5)
		})
	}
}
