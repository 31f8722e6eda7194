package fault

import (
	"bytes"
	"errors"
	"testing"

	"autarky/internal/mmu"
	"autarky/internal/pagestore"
	"autarky/internal/sim"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"zero plan", Plan{}, true},
		{"full ladder", Plan{PCorrupt: 0.1, PTruncate: 0.1, PReplay: 0.1, PUnavail: 0.5, PDelay: 0.1, DelayCycles: 100, OutageCycles: 1000}, true},
		{"probability above one", Plan{PCorrupt: 1.5}, false},
		{"negative probability", Plan{PReplay: -0.1}, false},
		{"mass above one", Plan{PCorrupt: 0.6, PUnavail: 0.6}, false},
		{"delay without size", Plan{PDelay: 0.1}, false},
		{"outage without unavailability", Plan{OutageCycles: 500}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.plan.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestRollIsPureAndSeedSensitive(t *testing.T) {
	p := Plan{Seed: 1, PCorrupt: 0.2, PUnavail: 0.3}
	// Purity: same inputs, same answer, regardless of call history.
	for i := 0; i < 3; i++ {
		if p.roll(opFetch, 1000, 7, 42) != p.roll(opFetch, 1000, 7, 42) {
			t.Fatal("roll is not a pure function of its inputs")
		}
	}
	// Sensitivity: a different seed must change some decisions, and the two
	// op codes must roll independently at the same (cycle, enclave, page).
	q := Plan{Seed: 2, PCorrupt: 0.2, PUnavail: 0.3}
	diffSeed, diffOp := false, false
	for cycle := uint64(0); cycle < 1000; cycle++ {
		if p.roll(opFetch, cycle, 7, 42) != q.roll(opFetch, cycle, 7, 42) {
			diffSeed = true
		}
		if p.roll(opFetch, cycle, 7, 42) != p.roll(opEvict, cycle, 7, 42) {
			diffOp = true
		}
	}
	if !diffSeed {
		t.Error("1000 cycles, two seeds, identical decisions — seed is dead")
	}
	if !diffOp {
		t.Error("evict and fetch never roll differently — op code is dead")
	}
}

// seal produces a valid blob for exercising the fetch-side faults.
func seal(t *testing.T, enclaveID uint64, va mmu.VAddr, version uint64, fill byte) pagestore.Blob {
	t.Helper()
	s, err := pagestore.NewSealer([]byte("fault-test-root"), enclaveID)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, mmu.PageSize)
	for i := range plain {
		plain[i] = fill
	}
	b, err := s.Seal(va, version, plain)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBackendInjectsDeterministically(t *testing.T) {
	const enclaveID = 1
	va := mmu.VAddr(0x3000)
	run := func() []string {
		clock := sim.NewClock()
		costs := sim.DefaultCosts()
		_ = costs
		f := NewBackend(pagestore.NewStore(), Plan{Seed: 5, PUnavail: 0.4}, clock)
		var outcomes []string
		for i := 0; i < 50; i++ {
			clock.ChargeAmbient(97) // distinct cycle per op, so decisions vary
			err := f.Evict(enclaveID, va, seal(t, enclaveID, va, uint64(i), byte(i)))
			if err != nil {
				outcomes = append(outcomes, "evict-unavail")
				continue
			}
			if _, err := f.Fetch(enclaveID, va); err != nil {
				outcomes = append(outcomes, "fetch-unavail")
			} else {
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: %q vs %q — same plan, same sequence, different faults", i, a[i], b[i])
		}
	}
	seen := map[string]bool{}
	for _, o := range a {
		seen[o] = true
	}
	if !seen["ok"] || (!seen["evict-unavail"] && !seen["fetch-unavail"]) {
		t.Errorf("outcome mix %v too uniform to prove anything", seen)
	}
}

func TestUnavailabilityCarriesBlobKey(t *testing.T) {
	clock := sim.NewClock()
	f := NewBackend(pagestore.NewStore(), Plan{Seed: 1, PUnavail: 1}, clock)
	va := mmu.VAddr(0x8000)
	_, err := f.Fetch(9, va)
	if !errors.Is(err, pagestore.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	var be *pagestore.BlobError
	if !errors.As(err, &be) || be.VA != va || be.EnclaveID != 9 || be.Op != "fetch" {
		t.Fatalf("unavailability lost its blob key: %v", err)
	}
}

func TestOutageOutlivesSingleRoll(t *testing.T) {
	clock := sim.NewClock()
	f := NewBackend(pagestore.NewStore(), Plan{Seed: 1, PUnavail: 1, OutageCycles: 10_000}, clock)
	va := mmu.VAddr(0x8000)
	if _, err := f.Fetch(1, va); !errors.Is(err, pagestore.ErrUnavailable) {
		t.Fatalf("first fetch: %v", err)
	}
	// Inside the armed window every operation is refused without re-rolling.
	clock.ChargeAmbient(9_999)
	if err := f.Evict(1, va, seal(t, 1, va, 1, 0xAB)); !errors.Is(err, pagestore.ErrUnavailable) {
		t.Fatalf("inside outage window: %v", err)
	}
}

func TestMangleCorruptTruncateReplay(t *testing.T) {
	const enclaveID = 1
	va := mmu.VAddr(0x3000)
	clock := sim.NewClock()
	// PReplay must be non-zero for the backend to archive history at all.
	f := NewBackend(pagestore.NewStore(), Plan{Seed: 1, PReplay: 0.1}, clock)
	old := seal(t, enclaveID, va, 1, 0x01)
	cur := seal(t, enclaveID, va, 2, 0x02)
	f.archive(enclaveID, va, old)
	f.archive(enclaveID, va, cur)

	if got := f.mangle(KindCorrupt, enclaveID, va, cur); bytes.Equal(got.Ciphertext, cur.Ciphertext) {
		t.Error("corrupt returned the pristine blob")
	} else if len(got.Ciphertext) != len(cur.Ciphertext) {
		t.Error("corrupt changed the blob length")
	}
	if got := f.mangle(KindTruncate, enclaveID, va, cur); len(got.Ciphertext) >= len(cur.Ciphertext) {
		t.Error("truncate did not shorten the blob")
	}
	if got := f.mangle(KindReplay, enclaveID, va, cur); !bytes.Equal(got.Ciphertext, old.Ciphertext) {
		t.Error("replay did not serve the oldest archived blob")
	}
	// The original must stay pristine throughout: faults are what the
	// enclave observes, not what the store holds.
	if !bytes.Equal(cur.Ciphertext, seal(t, enclaveID, va, 2, 0x02).Ciphertext) {
		t.Error("mangle mutated the caller's blob")
	}
}

// TestArchiveBoundedPerPage evicts one page many times under a replaying
// plan and checks the replay archive retains the same bytes after every
// eviction from the second on — the first blob only — while a replay still
// serves that first blob.
func TestArchiveBoundedPerPage(t *testing.T) {
	const enclaveID = 1
	va := mmu.VAddr(0x5000)
	clock := sim.NewClock()
	f := NewBackend(pagestore.NewStore(), Plan{Seed: 3, PReplay: 0.2}, clock)
	retained := func() int {
		n := 0
		for _, a := range f.archived {
			n += cap(a.oldest.Ciphertext)
		}
		return n
	}
	first := seal(t, enclaveID, va, 1, 0x01)
	if err := f.Evict(enclaveID, va, first); err != nil {
		t.Fatal(err)
	}
	want := retained()
	if want == 0 {
		t.Fatal("a replaying plan archived nothing")
	}
	for v := uint64(2); v <= 64; v++ {
		if err := f.Evict(enclaveID, va, seal(t, enclaveID, va, v, byte(v))); err != nil {
			t.Fatal(err)
		}
		if got := retained(); got != want {
			t.Fatalf("after %d evictions of one page the archive retains %d bytes, want %d", v, got, want)
		}
	}
	if got := f.mangle(KindReplay, enclaveID, va, pagestore.Blob{}); !bytes.Equal(got.Ciphertext, first.Ciphertext) {
		t.Fatal("replay did not serve the first archived blob")
	}
}
