package libos

import (
	"fmt"

	"autarky/internal/hostos"
	"autarky/internal/metrics"
	"autarky/internal/sgx"
	"autarky/internal/sim"
)

// This file implements the libos half of live migration on the sealed-state
// pipeline (see state.go): quiesce the process, seal its state under the
// platform migration key with a freshness epoch, and retire the source
// incarnation — then, on the destination, authenticate the envelope, verify
// freshness against the counter service, and rebuild the enclave under the
// destination machine's EPC geometry and cost model.

// Migration is a sealed, self-contained unit of enclave state in transit
// between machines. The host (and the fleet layer) can store and transport
// it but cannot read or undetectably modify it; its freshness epoch and
// source measurement ride in the envelope's authenticated header.
type Migration struct {
	// Sealed is the authenticated sealed-state envelope, sealed under
	// sgx.MigrationKey (see sgx.CPU.SealState).
	Sealed []byte
}

// Migrate quiesces the process and produces its migration envelope: the
// writable image, progress counter and anti-replay versions are captured at
// CSSA 0, encoded, sealed under the platform migration key with freshness
// epoch MigrationEpoch()+1, and the source incarnation is retired — after
// Migrate returns successfully this process can never run again, and every
// kernel service on its handle reports hostos.ErrMigrated. On error the
// process is untouched and still runnable.
//
// The caller must have drained the process's scheduling (sched.Drain) and
// serving (service.Server.Drain) first; Migrate itself only guards the
// enclave-level preconditions.
func (p *Process) Migrate() (*Migration, error) {
	if _, in := p.Kernel.CPU.InEnclave(); in {
		return nil, fmt.Errorf("libos: migrate while the enclave is executing")
	}
	if dead, reason, _ := p.Proc.E.Dead(); dead {
		if reason == sgx.TerminateMigrated {
			// Quiesce-twice: this incarnation already handed its state off.
			return nil, fmt.Errorf("libos: migrate of already-migrated enclave: %w", hostos.ErrMigrated)
		}
		return nil, fmt.Errorf("libos: migrate of dead enclave (%s): %w", reason, sgx.ErrEnclaveTerminated)
	}
	sealed, npages, err := p.sealState(sgx.MigrationKey, p.Proc.E.MigrationEpoch()+1)
	if err != nil {
		return nil, fmt.Errorf("libos: migration capture: %w", err)
	}
	if err := p.Kernel.RetireEnclave(p.Proc); err != nil {
		return nil, fmt.Errorf("libos: retiring migrated enclave: %w", err)
	}
	m := metrics.Of(p.Kernel.Clock)
	m.Inc(metrics.CntMigrations)
	m.Add(metrics.CntMigrationPages, uint64(npages))
	return &Migration{Sealed: sealed}, nil
}

// Adopt completes a migration on the destination machine: authenticate the
// envelope, check its freshness epoch against the counter service, decode
// and validate the payload, rebuild the enclave under the destination's EPC
// geometry, cost model and backend stack (pages re-cluster and re-seal
// under the new identity via the ordinary load + write-replay path), and
// commit the epoch so the envelope can never be adopted again.
//
// The misuse taxonomy is deliberate and ordered: a structurally bad or
// tampered envelope fails with sgx.ErrBadCheckpoint before freshness is
// consulted; a replayed or superseded envelope fails with
// sgx.ErrStaleMigration; an envelope whose address range is still occupied
// by a live enclave fails with hostos.ErrEnclaveLive (adopt-while-running);
// a measurement mismatch after rebuild fails with sgx.ErrBadCheckpoint.
// Only a fully successful adopt advances the counter.
func Adopt(k *hostos.Kernel, clock *sim.Clock, costs *sim.Costs, mig *Migration, counters *sgx.CounterService) (*Process, error) {
	m := metrics.Of(k.Clock)
	reject := func(err error) (*Process, error) {
		m.Inc(metrics.CntAdoptsRejected)
		return nil, err
	}
	if mig == nil || len(mig.Sealed) == 0 {
		return reject(fmt.Errorf("libos: adopt of empty migration envelope: %w", sgx.ErrBadCheckpoint))
	}
	epoch, meas, plain, err := k.CPU.OpenState(sgx.MigrationKey, mig.Sealed)
	if err != nil {
		return reject(err)
	}
	if counters != nil {
		if err := counters.Verify(meas, epoch); err != nil {
			return reject(err)
		}
	}
	payload, err := decodeState(plain)
	if err != nil {
		return reject(err)
	}
	p, err := restorePayload(k, clock, costs, payload, meas, epoch)
	if err != nil {
		return reject(err)
	}
	if counters != nil {
		counters.Commit(meas, epoch)
	}
	m.Inc(metrics.CntAdopts)
	return p, nil
}
