package autarky

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// churnImage is a paging-heavy workload image: more heap than quota, so
// every round pushes evict/fetch traffic through the backend stack.
func churnImage(heapPages int) AppImage {
	return AppImage{
		Name:      "churn",
		Libraries: []Library{{Name: "libchurn.so", Pages: 2}},
		HeapPages: heapPages,
	}
}

// churn stores to every heap data page for the given rounds, reporting
// progress so rate limiting stays satisfied.
func churn(p *Proc, rounds int) error {
	heap := p.Heap.PageVAs()
	return p.Run(func(ctx *Context) {
		for r := 0; r < rounds; r++ {
			for _, va := range heap[1:] {
				ctx.Store(va)
				ctx.Progress(1)
			}
		}
	})
}

func churnConfig() Config {
	return Config{
		SelfPaging:     true,
		Mech:           MechSGX1,
		Policy:         PolicyRateLimit,
		RateLimitBurst: 1 << 40,
		QuotaPages:     16,
	}
}

func TestRecoveryOptionsRejectInvalidConfigs(t *testing.T) {
	cases := []struct {
		name  string
		opt   Option
		field string
	}{
		{"fault plan probability out of range", WithFaultPlan(FaultPlan{PCorrupt: 1.5}), "FaultPlan"},
		{"fault plan outage without unavailability", WithFaultPlan(FaultPlan{OutageCycles: 1000}), "FaultPlan"},
		{"retry without attempts", WithRetryPolicy(RetryPolicy{}), "RetryPolicy.Attempts"},
		{"retry with free retries", WithRetryPolicy(RetryPolicy{Attempts: 3}), "RetryPolicy.BackoffBase"},
		{"retry cap below base", WithRetryPolicy(RetryPolicy{Attempts: 2, BackoffBase: 100, BackoffCap: 50}), "RetryPolicy.BackoffCap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(WithEPCFrames(256), tc.opt)
			_, err := m.Spawn(churnImage(8), churnConfig())
			if err == nil {
				t.Fatal("invalid recovery option accepted")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field {
				t.Fatalf("want ConfigError{Field: %q}, got %v", tc.field, err)
			}
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("ConfigError does not match ErrBadConfig: %v", err)
			}
		})
	}
}

func TestRetryAbsorbsTransientUnavailability(t *testing.T) {
	m := NewMachine(WithEPCFrames(512),
		WithFaultPlan(FaultPlan{Seed: 7, PUnavail: 0.08}),
		WithRetryPolicy(DefaultRetryPolicy()))
	p, err := m.Spawn(churnImage(24), churnConfig())
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := churn(p, 6); err != nil {
		t.Fatalf("workload died despite retry: %v", err)
	}
	snap := m.Metrics()
	if snap.Counter(CntFaultUnavails) == 0 {
		t.Error("no unavailability was injected — workload too small to test retry")
	}
	if snap.Counter(CntBackendRetries) == 0 {
		t.Error("retry layer never re-issued an operation")
	}
}

func TestFallbackAbsorbsSustainedOutage(t *testing.T) {
	m := NewMachine(WithEPCFrames(512),
		WithFaultPlan(FaultPlan{Seed: 9, PUnavail: 0.05, OutageCycles: 300_000}),
		WithRetryPolicy(DefaultRetryPolicy()),
		WithFallbackStore(nil))
	p, err := m.Spawn(churnImage(24), churnConfig())
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := churn(p, 6); err != nil {
		t.Fatalf("workload died despite fallback: %v", err)
	}
	snap := m.Metrics()
	if snap.Counter(CntBackendGiveups) == 0 {
		t.Error("outage never outlived the retry budget — OutageCycles too short for the test")
	}
	if snap.Counter(CntBackendFallbacks) == 0 {
		t.Error("fallback mirror never absorbed an operation")
	}
	if snap.Counter(CntBackendMirrors) == 0 {
		t.Error("no blobs were mirrored into the fallback store")
	}
}

func TestIntegrityFaultTerminatesThroughRecovery(t *testing.T) {
	// Retry and fallback are both armed, and neither may mask a tampered
	// blob: integrity failures must terminate the enclave.
	m := NewMachine(WithEPCFrames(512),
		WithFaultPlan(FaultPlan{Seed: 3, PCorrupt: 0.2}),
		WithRetryPolicy(DefaultRetryPolicy()),
		WithFallbackStore(nil))
	p, err := m.Spawn(churnImage(24), churnConfig())
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	err = churn(p, 6)
	if err == nil {
		t.Fatal("corruption at 20% per operation never killed the enclave")
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity class, got %v", err)
	}
	var te *TerminationError
	if !errors.As(err, &te) {
		t.Fatalf("integrity failure did not surface as a TerminationError: %v", err)
	}
}

// TestSentinelRoundTripThroughTermination locks the whole failure taxonomy:
// every facade sentinel must survive errors.Is through arbitrary wrapping
// and through a TerminationError carrying it as the concrete cause — the
// exact chain a driver/runtime failure takes to reach API callers. The
// refined integrity sentinels must additionally keep matching their
// ErrIntegrity class, and availability must never be conflated with it.
func TestSentinelRoundTripThroughTermination(t *testing.T) {
	cases := []struct {
		name      string
		sentinel  error
		integrity bool // must also match the ErrIntegrity class
	}{
		{"ErrIntegrity", ErrIntegrity, true},
		{"ErrTruncated", ErrTruncated, true},
		{"ErrStaleVersion", ErrStaleVersion, true},
		{"ErrWrongEnclave", ErrWrongEnclave, true},
		{"ErrRateLimited", ErrRateLimited, false},
		{"ErrEPCExhausted", ErrEPCExhausted, false},
		{"ErrUnavailable", ErrUnavailable, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wrapped := &BlobError{EnclaveID: 5, VA: VAddr(0x7000), Op: "fetch",
				Err: fmt.Errorf("layer: %w", tc.sentinel)}
			term := &TerminationError{Detail: "test", Cause: wrapped}
			outer := fmt.Errorf("run failed: %w", term)

			if !errors.Is(outer, tc.sentinel) {
				t.Errorf("sentinel lost through BlobError+TerminationError+wrap")
			}
			if got := errors.Is(outer, ErrIntegrity); got != tc.integrity {
				t.Errorf("errors.Is(err, ErrIntegrity) = %v, want %v", got, tc.integrity)
			}
			var be *BlobError
			if !errors.As(outer, &be) || be.VA != VAddr(0x7000) {
				t.Error("blob attribution lost through the termination chain")
			}
			var te *TerminationError
			if !errors.As(outer, &te) {
				t.Error("TerminationError lost through wrapping")
			}
		})
	}
	// Availability and integrity are disjoint classes by design: conflating
	// them would turn retryable outages into "compromised" verdicts.
	if errors.Is(ErrUnavailable, ErrIntegrity) {
		t.Error("ErrUnavailable must not wrap ErrIntegrity")
	}
}

func TestFaultInjectionIsDeterministic(t *testing.T) {
	run := func() MetricsSnapshot {
		m := NewMachine(WithEPCFrames(512),
			WithFaultPlan(FaultPlan{Seed: 7, PUnavail: 0.08, PDelay: 0.05, DelayCycles: 1500}),
			WithRetryPolicy(DefaultRetryPolicy()))
		p, err := m.Spawn(churnImage(24), churnConfig())
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		if err := churn(p, 6); err != nil {
			t.Fatalf("workload: %v", err)
		}
		return m.Metrics()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical fault-injected machines diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Counter(CntFaultsInjected) == 0 {
		t.Error("no faults injected — determinism check is vacuous")
	}
}

// TestCheckpointRestoreRoundTrip is the acceptance check for crash-and-
// restore: a run that is checkpointed, killed and restored must end with
// exactly the memory contents of an uninterrupted run, and the restore must
// be visible (and paid for) in the machine metrics.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const (
		heapPages   = 16
		totalRounds = 10
		burst       = 2000
	)
	img := churnImage(heapPages)
	cfg := Config{
		SelfPaging:     true,
		Mech:           MechSGX1,
		Policy:         PolicyRateLimit,
		RateLimitBurst: burst,
		QuotaPages:     14,
	}
	mix := func(words ...uint64) uint64 {
		h := uint64(0x9e3779b97f4a7c15)
		for _, w := range words {
			h ^= w
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 31
		}
		return h
	}
	// step advances the workload up to `rounds` more rounds; the cursor
	// lives in heap page 0, so a restored incarnation resumes where the
	// checkpoint left it.
	step := func(heap []VAddr, rounds int) func(*Context) {
		return func(ctx *Context) {
			var buf [8]byte
			ctx.Read(heap[0], buf[:])
			cursor := binary.LittleEndian.Uint64(buf[:])
			var tok [8]byte
			for n := 0; n < rounds && cursor < totalRounds; n++ {
				idx := 1 + mix(cursor)%uint64(len(heap)-1)
				binary.LittleEndian.PutUint64(tok[:], mix(cursor, idx))
				ctx.Write(heap[idx], tok[:])
				cursor++
				ctx.Progress(1)
			}
			binary.LittleEndian.PutUint64(buf[:], cursor)
			ctx.Write(heap[0], buf[:])
		}
	}
	dump := func(heap []VAddr, out *[]byte) func(*Context) {
		return func(ctx *Context) {
			buf := make([]byte, PageSize)
			for _, va := range heap {
				ctx.Read(va, buf)
				*out = append(*out, buf...)
			}
		}
	}

	// Reference: the same workload, uninterrupted.
	ma := NewMachine(WithEPCFrames(512))
	pa, err := ma.Spawn(img, cfg)
	if err != nil {
		t.Fatalf("spawn (reference): %v", err)
	}
	heapA := pa.Heap.PageVAs()
	if err := pa.Run(step(heapA, totalRounds)); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var want []byte
	if err := pa.Run(dump(heapA, &want)); err != nil {
		t.Fatalf("reference dump: %v", err)
	}

	// Crash-and-restore: half the rounds, a checkpoint, a hostile loop that
	// blows the fault budget (rate limiting terminates the enclave), then
	// Restore and the remaining rounds.
	mb := NewMachine(WithEPCFrames(512))
	pb, err := mb.Spawn(img, cfg)
	if err != nil {
		t.Fatalf("spawn (crash): %v", err)
	}
	heapB := pb.Heap.PageVAs()
	if err := pb.Run(step(heapB, totalRounds/2)); err != nil {
		t.Fatalf("first half: %v", err)
	}
	cp, err := pb.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	killErr := pb.Run(func(ctx *Context) {
		for i := 0; i < 2*burst; i++ {
			ctx.Load(heapB[1+i%(heapPages-1)])
		}
	})
	if killErr == nil {
		t.Fatal("hostile loop did not terminate the enclave")
	}
	if !errors.Is(killErr, ErrRateLimited) {
		t.Fatalf("want rate-limit termination, got %v", killErr)
	}
	restored, err := mb.Restore(cp)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	heapR := restored.Heap.PageVAs()
	var got []byte
	if err := restored.Run(func(ctx *Context) {
		step(heapR, totalRounds)(ctx) // finishes the remaining rounds
		dump(heapR, &got)(ctx)
	}); err != nil {
		t.Fatalf("restored run: %v", err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored run's final heap differs from the uninterrupted run")
	}
	snap := mb.Metrics()
	if snap.Counter(CntCheckpoints) == 0 || snap.Counter(CntCheckpointPages) == 0 {
		t.Error("checkpoint not accounted in metrics")
	}
	if snap.Counter(CntRestores) != 1 {
		t.Errorf("CntRestores = %d, want 1", snap.Counter(CntRestores))
	}
	if snap.Counter(CntRestoreCycles) == 0 {
		t.Error("restore cost no cycles")
	}
}

// TestCheckpointNoncesDistinctAcrossMachines: every machine built from the
// default root secret derives the same checkpoint key, so the AES-GCM nonce
// alone must keep their checkpoints apart. Two machines each taking their
// first checkpoint must never seal under the same nonce — a repeat would
// leak the XOR of the two plaintexts and the authentication key.
func TestCheckpointNoncesDistinctAcrossMachines(t *testing.T) {
	var nonces [2][]byte
	for i := range nonces {
		m := NewMachine(WithEPCFrames(256))
		p, err := m.Spawn(testImage(4), Config{})
		if err != nil {
			t.Fatalf("Spawn: %v", err)
		}
		cp, err := p.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		nonces[i] = cp.Sealed[:12]
	}
	if bytes.Equal(nonces[0], nonces[1]) {
		t.Fatalf("two machines sealed their first checkpoint under the same nonce %x", nonces[0])
	}
}
