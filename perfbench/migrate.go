package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"autarky"
	"autarky/internal/metrics"
	"autarky/internal/sim"
)

// The migrate workload: several tenants, each with its own image and a
// written heap, rotate across three machines with different EPC sizes and
// cost models that share one counter service. Each move takes a checkpoint
// (the recovery point), runs Quiesce then Adopt on the next machine, checks
// the heap and writes a few pages. Every drillEvery-th move also runs a
// restore drill: Restore the checkpoint on a standby machine, check its
// heap, then try to live-migrate the restored copy. One operation is one
// move.

type migrateSize struct {
	tenants   int
	heapPages int
	moves     int // timed moves; set-up makes one warm-up move per tenant
}

func migrateSizes(short bool) migrateSize {
	if short {
		return migrateSize{tenants: 3, heapPages: 16, moves: 12}
	}
	return migrateSize{tenants: 6, heapPages: 64, moves: 96}
}

const (
	drillEvery = 4
	// migrateTraffic is how many heap pages a tenant writes after each move.
	migrateTraffic = 4
)

// migrateTenant is one tenant: its live process, where it runs, and a
// shadow of the tag in each heap page.
type migrateTenant struct {
	p      *autarky.Proc
	at     int
	shadow []uint64
}

// migrateMachines builds the three rotation machines and the standby. They
// share the default sealing root, so each can open the others' envelopes.
func migrateMachines() (rotation []*autarky.Machine, standby *autarky.Machine) {
	slowCrypto := sim.DefaultCosts()
	slowCrypto.SWEncryptPage *= 2
	slowCrypto.SWDecryptPage *= 2
	slowPaging := sim.DefaultCosts()
	slowPaging.EWB = slowPaging.EWB * 3 / 2
	slowPaging.ELDU = slowPaging.ELDU * 3 / 2
	rotation = []*autarky.Machine{
		autarky.NewMachine(autarky.WithEPCFrames(1024)),
		autarky.NewMachine(autarky.WithEPCFrames(1536), autarky.WithCosts(slowCrypto)),
		autarky.NewMachine(autarky.WithEPCFrames(2048), autarky.WithCosts(slowPaging)),
	}
	return rotation, autarky.NewMachine(autarky.WithEPCFrames(1024))
}

// checkHeap runs p and verifies every heap page's tag against shadow; it
// then writes tags to the pages listed in writes and records them.
func checkHeap(p *autarky.Proc, shadow []uint64, writes []int, tag uint64) error {
	var failure error
	heap := p.Heap.PageVAs()
	err := p.Run(func(ctx *autarky.Context) {
		var buf [8]byte
		for i, va := range heap {
			ctx.Read(va, buf[:])
			if got := binary.LittleEndian.Uint64(buf[:]); got != shadow[i] {
				failure = fmt.Errorf("migrate: %s heap page %d reads %#x, want %#x", p.Image.Name, i, got, shadow[i])
				return
			}
		}
		for j, pg := range writes {
			binary.LittleEndian.PutUint64(buf[:], tag+uint64(j))
			ctx.Write(heap[pg], buf[:])
			shadow[pg] = tag + uint64(j)
		}
	})
	if err != nil {
		return fmt.Errorf("migrate: running %s: %w", p.Image.Name, err)
	}
	return failure
}

// migrateRun is the workload's state across moves.
type migrateRun struct {
	sz       migrateSize
	rotation []*autarky.Machine
	standby  *autarky.Machine
	all      []*autarky.Machine
	counters *autarky.CounterService
	// drillCounters judges the drill's adopt: the shared service, or nil
	// (no freshness check) for the test that forces a successful drill.
	drillCounters *autarky.CounterService
	tenants       []*migrateTenant
	rng           *sim.Rand
	tr            *tracer

	// retires counts drill copies adopted and then quiesced away: each adds
	// a migration without an adopt.
	drills, refusals, retires int
	// Sealed bytes of the timed phase's checkpoints and of every migration
	// envelope it sealed (moves, drills and retires).
	checkpointBytes, migrationBytes int
}

// move relocates tenant t to the next rotation machine; drill adds the
// restore drill.
func (w *migrateRun) move(k int, drill bool) error {
	t := w.tenants[k%len(w.tenants)]
	w.tr.setOp(k)

	s := w.tr.begin("libos.checkpoint")
	cp, err := t.p.Checkpoint()
	w.tr.end(s)
	if err != nil {
		return fmt.Errorf("migrate: checkpoint: %w", err)
	}
	w.checkpointBytes += len(cp.Sealed)

	s = w.tr.begin("libos.quiesce")
	mig, err := t.p.Quiesce()
	w.tr.end(s)
	if err != nil {
		return fmt.Errorf("migrate: quiesce: %w", err)
	}
	w.migrationBytes += len(mig.Sealed)

	dst := (t.at + 1) % len(w.rotation)
	s = w.tr.begin("libos.adopt")
	p, err := w.rotation[dst].Adopt(mig, w.counters)
	w.tr.end(s)
	if err != nil {
		return fmt.Errorf("migrate: adopt of a live move refused: %w", err)
	}
	t.p, t.at = p, dst

	if drill {
		if err := w.drill(cp, t.shadow); err != nil {
			return err
		}
	}
	writes := make([]int, migrateTraffic)
	for i := range writes {
		writes[i] = w.rng.Intn(w.sz.heapPages)
	}
	return checkHeap(t.p, t.shadow, writes, uint64(k+1)<<32)
}

// drill restores cp on the standby, checks the restored heap against the
// contents at checkpoint time, and tries to live-migrate the restored copy
// back onto the standby. A stale-epoch refusal is counted, not fatal.
func (w *migrateRun) drill(cp *autarky.Checkpoint, shadow []uint64) error {
	w.drills++
	s := w.tr.begin("libos.restore")
	rp, err := w.standby.Restore(cp)
	w.tr.end(s)
	if err != nil {
		return fmt.Errorf("migrate: drill restore: %w", err)
	}
	if err := checkHeap(rp, shadow, nil, 0); err != nil {
		return fmt.Errorf("migrate: drill: %w", err)
	}
	s = w.tr.begin("libos.quiesce")
	mig, err := rp.Quiesce()
	w.tr.end(s)
	if err != nil {
		return fmt.Errorf("migrate: drill quiesce: %w", err)
	}
	w.migrationBytes += len(mig.Sealed)
	s = w.tr.begin("libos.adopt")
	ap, err := w.standby.Adopt(mig, w.drillCounters)
	w.tr.end(s)
	switch {
	case errors.Is(err, autarky.ErrStaleMigration):
		w.refusals++
		return nil
	case err != nil:
		return fmt.Errorf("migrate: drill adopt: %w", err)
	}
	// The adopted copy is a fork of a live tenant: check it, then retire it
	// so the standby stays free.
	if err := checkHeap(ap, shadow, nil, 0); err != nil {
		return fmt.Errorf("migrate: drill adopt: %w", err)
	}
	s = w.tr.begin("libos.quiesce")
	mig, err = ap.Quiesce()
	w.tr.end(s)
	if err != nil {
		return fmt.Errorf("migrate: retiring the drill copy: %w", err)
	}
	w.retires++
	w.migrationBytes += len(mig.Sealed)
	return nil
}

func prepareMigrate(seed uint64, short bool, tr *tracer) (phase, error) {
	w, err := newMigrateRun(seed, short, tr)
	if err != nil {
		return phase{}, err
	}
	return w.timed(), nil
}

// newMigrateRun builds the machines and tenants and makes the warm-up
// moves: the workload's set-up.
func newMigrateRun(seed uint64, short bool, tr *tracer) (*migrateRun, error) {
	sz := migrateSizes(short)
	rotation, standby := migrateMachines()
	for _, m := range append(rotation, standby) {
		if err := traceBackend(m, tr); err != nil {
			return nil, err
		}
	}
	counters := autarky.NewCounterService()
	w := &migrateRun{
		sz: sz, rotation: rotation, standby: standby,
		all:      append(append([]*autarky.Machine(nil), rotation...), standby),
		counters: counters, drillCounters: counters,
		rng: sim.NewRand(seed),
	}
	for i := 0; i < sz.tenants; i++ {
		t := &migrateTenant{at: i % len(rotation), shadow: make([]uint64, sz.heapPages)}
		p, err := rotation[t.at].Spawn(autarky.AppImage{
			Name:      fmt.Sprintf("tenant-%d", i),
			Libraries: []autarky.Library{{Name: "libtenant.so", Pages: 2}},
			HeapPages: sz.heapPages,
		}, autarky.Config{
			SelfPaging:     true,
			Mech:           autarky.MechSGX1,
			Policy:         autarky.PolicyRateLimit,
			RateLimitBurst: 1 << 40,
			QuotaPages:     sz.heapPages * 3 / 4,
			// Disjoint ranges, so tenants never collide on any machine.
			Base: autarky.DefaultBase + autarky.VAddr(i)<<30,
		})
		if err != nil {
			return nil, fmt.Errorf("migrate: spawn tenant %d: %w", i, err)
		}
		t.p = p
		all := make([]int, sz.heapPages)
		for pg := range all {
			all[pg] = pg
		}
		if err := checkHeap(p, t.shadow, all, w.rng.Uint64()&^0xffffffff|1<<63); err != nil {
			return nil, err
		}
		w.tenants = append(w.tenants, t)
	}
	// Warm-up: every tenant moves once, so each machine has adopted before
	// timing starts.
	for k := 0; k < sz.tenants; k++ {
		if err := w.move(k, false); err != nil {
			return nil, err
		}
	}
	w.checkpointBytes, w.migrationBytes = 0, 0
	w.tr = tr // the libos spans of the warm-up moves are not kept
	return w, nil
}

// timed returns the timed phase: sz.moves moves with a drill every
// drillEvery-th.
func (w *migrateRun) timed() phase {
	sz := w.sz
	var before []autarky.MetricsSnapshot
	samples := make([]uint64, 0, sz.moves)
	return phase{
		run: func(func()) error {
			before = snapshots(w.all)
			for k := 0; k < sz.moves; k++ {
				c0 := totalCycles(w.all)
				if err := w.move(k, k%drillEvery == drillEvery-1); err != nil {
					return err
				}
				samples = append(samples, totalCycles(w.all)-c0)
			}
			return nil
		},
		finish: func(rp *rep) error {
			d, err := snapshotDelta(w.all, before)
			if err != nil {
				return err
			}
			migrations, adopts := d.Counter(metrics.CntMigrations), d.Counter(metrics.CntAdopts)
			if adopts != migrations-uint64(w.refusals+w.retires) {
				return fmt.Errorf("migrate: %d adopts for %d migrations, %d refusals and %d retires",
					adopts, migrations, w.refusals, w.retires)
			}
			rp.ops = sz.moves
			rp.attempted = sz.moves + w.drills
			rp.failed = w.refusals
			rp.layerCounts(d, rp.ops)
			rp.latency(samples)
			rp.sim["libos.checkpoint_bytes_per_page"] = ratio(float64(w.checkpointBytes), float64(d.Counter(metrics.CntCheckpointPages)))
			rp.sim["libos.migration_bytes_per_page"] = ratio(float64(w.migrationBytes), float64(d.Counter(metrics.CntMigrationPages)))
			return nil
		},
	}
}

// totalCycles sums the clocks of every machine.
func totalCycles(ms []*autarky.Machine) uint64 {
	var c uint64
	for _, m := range ms {
		c += m.Cycles()
	}
	return c
}

// migrateHost derives the libos call timings of a traced rep.
func migrateHost(r *rep, tr *tracer) {
	for _, call := range []string{"checkpoint", "restore", "quiesce", "adopt"} {
		r.host["libos."+call+"_ns"] = quantile(tr.durations("libos."+call), 0.5)
	}
}
