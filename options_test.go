package autarky

import (
	"errors"
	"testing"
)

// TestOptionValidationRoundTrip pins the unified option-validation path:
// every WithXxx option that can be handed a malformed value must surface it
// at the first Spawn and Serve alike, as a *ConfigError naming the option
// and matching errors.Is(err, ErrBadConfig).
func TestOptionValidationRoundTrip(t *testing.T) {
	img := AppImage{Name: "opt", Libraries: []Library{{Name: "libopt.so", Pages: 1}}, HeapPages: 4}
	cfg := Config{SelfPaging: true, Policy: PolicyPinAll}
	cases := []struct {
		name  string
		field string
		opt   Option
	}{
		{"epc-frames", "EPCFrames", WithEPCFrames(0)},
		{"tlb-geometry", "TLBGeometry", WithTLBGeometry(0, 4)},
		{"root-secret", "RootSecret", WithRootSecret(nil)},
		{"scheduler", "Scheduler", WithScheduler(SchedPolicy(99))},
		{"backing-store", "BackingStore", WithBackingStore(CachedBacking(0, nil))},
		{"fault-plan", "FaultPlan", WithFaultPlan(FaultPlan{PCorrupt: 2})},
		{"retry-policy", "RetryPolicy.Attempts", WithRetryPolicy(RetryPolicy{Attempts: 0})},
		{"fallback-store", "FallbackStore", WithFallbackStore(ORAMBacking(-1, nil))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(tc.opt)
			check := func(entry string, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted a machine with invalid %s", entry, tc.field)
				}
				if !errors.Is(err, ErrBadConfig) {
					t.Fatalf("%s error %v does not match ErrBadConfig", entry, err)
				}
				var ce *ConfigError
				if !errors.As(err, &ce) {
					t.Fatalf("%s error %v is not a *ConfigError", entry, err)
				}
				if ce.Field != tc.field {
					t.Fatalf("%s error names field %q, want %q", entry, ce.Field, tc.field)
				}
			}
			_, err := m.Spawn(img, cfg)
			check("Spawn", err)
			_, err = m.Serve(img, cfg)
			check("Serve", err)
			_, err = m.Restore(&Checkpoint{})
			check("Restore", err)
		})
	}
}

// TestOptionValidationDoesNotBlockValidMachines guards the other direction:
// the default machine and one with every option set validly must spawn.
func TestOptionValidationDoesNotBlockValidMachines(t *testing.T) {
	img := AppImage{Name: "opt", Libraries: []Library{{Name: "libopt.so", Pages: 1}}, HeapPages: 4}
	cfg := Config{SelfPaging: true, Policy: PolicyPinAll}
	m := NewMachine(
		WithEPCFrames(512),
		WithTLBGeometry(16, 2),
		WithRootSecret([]byte("s")),
		WithScheduler(SchedPriority),
		WithQuantum(100_000),
		WithBackingStore(CachedBacking(32, nil)),
		WithFaultPlan(FaultPlan{Seed: 1, PDelay: 0.01, DelayCycles: 10}),
		WithRetryPolicy(RetryPolicy{Attempts: 2, BackoffBase: 100, BackoffCap: 400}),
		WithFallbackStore(PlainBacking()),
	)
	if _, err := m.Spawn(img, cfg); err != nil {
		t.Fatalf("fully-optioned valid machine refused Spawn: %v", err)
	}
}
