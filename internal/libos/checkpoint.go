package libos

import (
	"fmt"

	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// This file implements enclave checkpoint/restore on the sealed-state
// pipeline (see state.go). A checkpoint is the sealed-state envelope under
// the platform checkpoint key with epoch 0: unlike a migration it carries no
// freshness epoch and does not retire the source, so the caller may take
// many and restore from any of them.

// Checkpoint is a sealed, opaque snapshot of an enclave process. The OS can
// store or transport it but cannot read or undetectably modify it.
type Checkpoint struct {
	// Sealed is the authenticated sealed-state envelope, sealed under
	// sgx.CheckpointKey (see sgx.CPU.SealState).
	Sealed []byte
}

// Checkpoint captures the process's state into a sealed blob. The enclave
// must be alive and not currently executing; capture drives the real access
// path (faulting evicted pages back in), so a hostile backing store can make
// a checkpoint attempt fail — the caller keeps its previous checkpoint in
// that case.
func (p *Process) Checkpoint() (*Checkpoint, error) {
	k := p.Kernel
	if _, in := k.CPU.InEnclave(); in {
		return nil, fmt.Errorf("libos: checkpoint while the enclave is executing")
	}
	if dead, reason, _ := p.Proc.E.Dead(); dead {
		return nil, fmt.Errorf("libos: checkpoint of dead enclave (%s): %w", reason, sgx.ErrEnclaveTerminated)
	}
	sealed, npages, err := p.sealState(sgx.CheckpointKey, 0)
	if err != nil {
		return nil, fmt.Errorf("libos: checkpoint capture: %w", err)
	}
	m := metrics.Of(k.Clock)
	m.Inc(metrics.CntCheckpoints)
	m.Add(metrics.CntCheckpointPages, uint64(npages))
	return &Checkpoint{Sealed: sealed}, nil
}

// Restore rebuilds a process from a sealed checkpoint on the given kernel.
// The previous incarnation, if still occupying the checkpoint's address
// range, must be dead; it is torn down first. The restored enclave is a
// fresh identity loaded from the same image and configuration — Restore
// verifies the measurement matches the checkpoint before replaying the
// captured pages and progress counter into it.
func Restore(k *hostos.Kernel, clock *sim.Clock, costs *sim.Costs, cp *Checkpoint) (*Process, error) {
	if cp == nil || len(cp.Sealed) == 0 {
		return nil, fmt.Errorf("libos: restore from empty checkpoint: %w", sgx.ErrBadCheckpoint)
	}
	_, meas, plain, err := k.CPU.OpenState(sgx.CheckpointKey, cp.Sealed)
	if err != nil {
		return nil, err
	}
	payload, err := decodeState(plain)
	if err != nil {
		return nil, err
	}
	return restorePayload(k, clock, costs, payload, meas, 0)
}
