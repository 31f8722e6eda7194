package pagestore_test

import (
	"bytes"
	"testing"

	"autarky/internal/fault"
	"autarky/internal/mmu"
	"autarky/internal/oram"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

// TestFetchBatchViewsOpenOnEveryStack audits the buffer-ownership contract
// now that the plain store overwrites a page's slot buffer in place on
// every eviction after its second. Over each backend stack, every round
// evicts every page (through a cache smaller than the page set where the
// stack has one, so blobs are written back into the store's reused slots),
// fetches them all in one FetchBatch, checks that every view the batch
// returned still opens to the page's latest contents, and drops them, as
// ELDU does after a successful restore.
func TestFetchBatchViewsOpenOnEveryStack(t *testing.T) {
	const (
		enclaveID = 1
		npages    = 6
		rounds    = 8
	)
	costs := sim.DefaultCosts()
	stacks := []struct {
		name  string
		build func(clock *sim.Clock) pagestore.PagingBackend
	}{
		{"store", func(*sim.Clock) pagestore.PagingBackend { return pagestore.NewStore() }},
		{"cache(2)+store", func(clock *sim.Clock) pagestore.PagingBackend {
			return pagestore.NewCachedBackend(pagestore.NewStore(), 2, clock, costs)
		}},
		{"fallback", func(clock *sim.Clock) pagestore.PagingBackend {
			// A primary that refuses a third of its operations sends whole
			// batches down the per-page fallback path.
			primary := fault.NewBackend(pagestore.NewCachedBackend(pagestore.NewStore(), 2, clock, costs),
				fault.Plan{Seed: 7, PUnavail: 0.3}, clock)
			return pagestore.NewFallbackBackend(primary, pagestore.NewStore(), clock, costs)
		}},
		{"oram+store", func(clock *sim.Clock) pagestore.PagingBackend {
			return oram.NewBackend(pagestore.NewStore(), 64, clock, costs, 11)
		}},
		{"fault+store", func(clock *sim.Clock) pagestore.PagingBackend {
			return fault.NewBackend(pagestore.NewStore(), fault.Plan{Seed: 5, PDelay: 0.5, DelayCycles: 100}, clock)
		}},
	}
	sealer, err := pagestore.NewSealer([]byte("ownership"), enclaveID)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, mmu.PageSize) }
	vas := make([]mmu.VAddr, npages)
	for i := range vas {
		vas[i] = mmu.PageOf(uint64(0x100 + i))
	}

	for _, sc := range stacks {
		t.Run(sc.name, func(t *testing.T) {
			clock := sim.NewClock()
			be := sc.build(clock)
			versions := make([]uint64, npages)
			arena := make([]byte, 0, npages*sealer.SealedLen())
			out := make([]pagestore.Blob, npages)
			for round := 0; round < rounds; round++ {
				// Seal the victims into one reused arena, as the runtime does.
				arena = arena[:0]
				var batch []pagestore.PageBlob
				for i, va := range vas {
					versions[i]++
					start := len(arena)
					arena, err = sealer.SealAppend(arena, va, versions[i], fill(byte(16*round+i)))
					if err != nil {
						t.Fatal(err)
					}
					batch = append(batch, pagestore.PageBlob{VA: va, Blob: pagestore.Blob{
						Ciphertext: arena[start:len(arena):len(arena)], Version: versions[i], EnclaveID: enclaveID,
					}})
				}
				if round%2 == 0 {
					err = be.EvictBatch(enclaveID, batch)
				} else {
					for _, pb := range batch {
						if err = be.Evict(enclaveID, pb.VA, pb.Blob); err != nil {
							break
						}
					}
				}
				if err != nil {
					t.Fatalf("round %d evict: %v", round, err)
				}
				// Clobber the caller's arena: the backends must have copied.
				for i := range arena {
					arena[i] = 0
				}
				clock.ChargeAmbient(1000)

				if err := be.FetchBatch(enclaveID, vas, out); err != nil {
					t.Fatalf("round %d fetch: %v", round, err)
				}
				for i, va := range vas {
					plain, err := sealer.Open(va, versions[i], out[i])
					if err != nil {
						t.Fatalf("round %d page %s: view does not open: %v", round, va, err)
					}
					if want := byte(16*round + i); plain[0] != want {
						t.Fatalf("round %d page %s: view holds fill %#x, want %#x", round, va, plain[0], want)
					}
				}
				for _, va := range vas {
					if err := be.Drop(enclaveID, va); err != nil {
						t.Fatalf("round %d drop: %v", round, err)
					}
				}
			}
		})
	}
}
