package autarky

import (
	"encoding/json"
	"errors"
	"testing"

	"autarky/internal/core"
	"autarky/internal/sgx"
)

// TestErrorTaxonomy locks the public error surface: every sentinel must be
// reachable with errors.Is through the API paths that produce it, and the
// typed errors must be extractable with errors.As. Renaming or unwiring any
// of these is a breaking change.
func TestErrorTaxonomy(t *testing.T) {
	// The EPC capacity class: pressure is a refinement of exhaustion.
	if !errors.Is(ErrEPCPressure, ErrEPCExhausted) {
		t.Fatal("ErrEPCPressure does not unwrap to ErrEPCExhausted")
	}

	// Hypervisor partitioning failures are EPC exhaustion.
	hv := NewHypervisor(64)
	if _, err := hv.CreateGuest(128); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("CreateGuest over-assignment = %v, want ErrEPCExhausted", err)
	}

	m := NewMachine(WithEPCFrames(512))

	// Config rejections: class sentinel plus the field-specific type.
	_, err := m.Spawn(testImage(8), Config{QuotaPages: -1})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Spawn bad config = %v, want ErrBadConfig", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "QuotaPages" {
		t.Fatalf("Spawn bad config did not carry *ConfigError{QuotaPages}: %v", err)
	}

	// LibOS allocation quota.
	p, err := m.Spawn(testImage(8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc.AllocPages(100); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("heap over-allocation = %v, want ErrQuotaExceeded", err)
	}

	// Rate-limit termination: the run error is a *TerminationError caused by
	// the policy's ErrRateLimited refusal.
	p2, err := m.Spawn(testImage(64), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1, // one fault allowed, no progress reported
		QuotaPages:     20,
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := p2.Run(func(ctx *Context) {
		for _, va := range p2.Heap.PageVAs() {
			ctx.Store(va)
		}
	})
	var term *TerminationError
	if !errors.As(runErr, &term) {
		t.Fatalf("rate-limited run = %v, want *TerminationError", runErr)
	}

	// The rate-limit sentinel is one value across every layer: the hardware
	// layer owns it (the termination reason), the runtime aliases it, and the
	// facade re-exports it — so errors.Is matches through the whole stack
	// regardless of which layer's name a caller imports.
	if !errors.Is(runErr, ErrRateLimited) {
		t.Fatalf("rate-limited run = %v, does not match facade ErrRateLimited", runErr)
	}
	if !errors.Is(runErr, core.ErrRateLimited) {
		t.Fatalf("rate-limited run = %v, does not match core.ErrRateLimited", runErr)
	}
	if !errors.Is(runErr, sgx.ErrRateLimited) {
		t.Fatalf("rate-limited run = %v, does not match sgx.ErrRateLimited", runErr)
	}
	if ErrRateLimited != core.ErrRateLimited || core.ErrRateLimited != sgx.ErrRateLimited {
		t.Fatal("rate-limit sentinels are distinct values across layers")
	}
}

// TestMachineMetrics exercises the public observability surface: snapshots
// carry the machine's cycles, the attribution invariant holds at any point,
// and the JSON wire form is deterministic.
func TestMachineMetrics(t *testing.T) {
	m := NewMachine(WithEPCFrames(512), WithTLBGeometry(8, 2))

	fresh := m.Metrics()
	if fresh.Cycles != 0 {
		t.Fatalf("fresh machine snapshot has %d cycles", fresh.Cycles)
	}
	if err := fresh.Check(); err != nil {
		t.Fatal(err)
	}

	p, err := m.Spawn(testImage(48), Config{
		SelfPaging:     true,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 30,
		QuotaPages:     36,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(func(ctx *Context) {
		for pass := 0; pass < 2; pass++ {
			for _, va := range p.Heap.PageVAs() {
				ctx.Store(va)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	s := m.Metrics()
	if s.Cycles != m.Cycles() {
		t.Fatalf("snapshot cycles %d != machine cycles %d", s.Cycles, m.Cycles())
	}
	if err := s.Check(); err != nil {
		t.Fatalf("attribution invariant: %v", err)
	}
	// The run paged under quota, so paging and fault cycles must show up.
	if s.Attribution[CatPaging] == 0 || s.Attribution[CatFault] == 0 {
		t.Fatalf("paging run attributed nothing to paging/fault: %v", s.Attribution)
	}
	if s.Attribution[CatCompute] == 0 {
		t.Fatalf("no compute cycles attributed: %v", s.Attribution)
	}

	// Snapshots are values: taking one twice at the same instant is
	// identical, and the wire form is byte-stable.
	s2 := m.Metrics()
	if s != s2 {
		t.Fatal("same-instant snapshots differ")
	}
	j1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(s2)
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatal("snapshot JSON does not round-trip")
	}
}

// TestOptionNames locks the construction options: WithTLBGeometry must
// configure the machine's TLB.
func TestOptionNames(t *testing.T) {
	a := NewMachine(WithTLBGeometry(8, 2), WithEPCFrames(256))
	if a.TLB.Sets() != 8 || a.TLB.Ways() != 2 {
		t.Fatalf("TLB geometry not applied: %dx%d", a.TLB.Sets(), a.TLB.Ways())
	}
}
