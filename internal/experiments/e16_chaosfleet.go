package experiments

import (
	"fmt"

	"autarky/internal/chaos"
	"autarky/internal/core"
	"autarky/internal/fleet"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// E16 — fleet-wide chaos: crash-stop failures, supervised self-healing, and
// availability accounting. Each cell is one five-machine fleet under a single
// deterministic clock, serving open-loop traffic through six tenants while a
// seeded chaos schedule crash-stops machines, freezes one stop-the-world, and
// partitions another's service channels. The grid sweeps the recovery story:
// first-fit and watermark ride out the failures with no supervision (crashed
// tenants stay down, their remaining traffic is lost outright), while the
// supervised cell runs the watchdog/heartbeat supervisor over periodic
// checkpoints — crashed machines are detected blind (heartbeat silence, two
// deadlines), their tenants restored from the latest checkpoint onto
// survivors, frozen machines that speak again are evacuated and fenced, and
// tenants the surviving EPC cannot hold are shed.
//
// Expected shape: the same failures hit every cell at the same cycles (one
// seed builds every cell's schedule), so the columns differ only in what
// happens next. Unsupervised cells bleed: downtime accrues from each crash to
// the end of the run and every unadmitted arrival of a downed tenant is lost.
// The supervised cell pays a visible price — heartbeats and watchdog sweeps
// in the policy bucket, checkpoint capture on the compute path, a
// recovery-point's worth of lost progress per restart — and buys strictly
// less downtime and strictly fewer lost requests. Either way the fleet-wide
// cycle account balances.

// E16Params sizes the experiment.
type E16Params struct {
	Tenants         int     // serving tenants admitted in waves
	Conns           int     // client connections per tenant
	Requests        int     // open-loop requests per tenant
	MeanGap         float64 // mean cycles between a tenant's arrivals
	HeapPages       int     // tenant heap (the touched working set)
	QuotaPages      int     // EPC residency quota (also the placement footprint)
	QueueCap        int     // per-connection queue bound
	Quantum         uint64  // node scheduler time slice
	RebalanceEvery  int     // policy scan cadence in fleet rounds
	CheckpointEvery int     // checkpoint cadence in fleet rounds (supervised cell)
	AdmitGap        uint64  // cycles between admission waves

	Horizon         uint64 // chaos events land in [Horizon/8, Horizon)
	Crashes         int    // crash-stop machine failures
	Freezes         int    // stop-the-world freezes
	Partitions      int    // service-channel partitions
	FreezeCycles    uint64 // freeze length; longer than the watchdog deadline
	PartitionCycles uint64 // partition length
	Deadline        uint64 // supervisor watchdog deadline in cycles

	Seed uint64
}

// DefaultE16Params returns the benchmark-scale configuration: six tenants
// over five machines, three crashes, one freeze and one partition from one
// seed. The freeze outlasts the watchdog deadline so the supervisor walks the
// suspect-then-alive path (evacuate and fence), not just the dead one.
func DefaultE16Params() E16Params {
	return E16Params{
		Tenants:         6,
		Conns:           4,
		Requests:        200,
		MeanGap:         500_000,
		HeapPages:       48,
		QuotaPages:      44,
		QueueCap:        64,
		Quantum:         60_000,
		RebalanceEvery:  8,
		CheckpointEvery: 24,
		AdmitGap:        1_500_000,
		Horizon:         60_000_000,
		Crashes:         3,
		Freezes:         1,
		Partitions:      1,
		FreezeCycles:    4_000_000,
		PartitionCycles: 2_000_000,
		Deadline:        1_500_000,
		Seed:            0xE16,
	}
}

// e16Nodes describes the heterogeneous fleet: five machines with different
// EPC geometries, two of them paying double for software page crypto.
func e16Nodes(f *fleet.Fleet) {
	fast := sim.DefaultCosts()
	slow := sim.DefaultCosts()
	slow.SWEncryptPage *= 2
	slow.SWDecryptPage *= 2
	f.AddNode("m0", 100, fast)
	f.AddNode("m1", 120, fast)
	f.AddNode("m2", 160, slow)
	f.AddNode("m3", 200, fast)
	f.AddNode("m4", 240, slow)
}

// e16Cell is one column of the sweep: a placement policy, with or without
// the chaos supervisor.
type e16Cell struct {
	name       string
	policy     fleet.Policy
	supervised bool
}

// e16Cells lists the sweep columns.
func e16Cells() []e16Cell {
	return []e16Cell{
		{name: "first-fit", policy: fleet.FirstFit{}},
		{name: "watermark", policy: fleet.Watermark{High: 0.70, Low: 0.50, Cooldown: 50}},
		{name: "supervised", policy: fleet.Watermark{High: 0.70, Low: 0.50, Cooldown: 50}, supervised: true},
	}
}

// e16ObjPages is the object size every request touches.
const e16ObjPages = 4

// E16Row is one cell of the sweep.
type E16Row struct {
	Cell      string
	Failures  int     // machine failures injected
	HBMissed  int     // watchdog deadlines missed (supervised only)
	Failovers int     // tenants moved off failed machines
	Restarts  int     // tenants restored from a periodic checkpoint
	Shed      int     // tenants dropped for lack of surviving capacity
	Downtime  uint64  // cycles tenants spent down from failures, summed
	RPAge     uint64  // checkpoint age at each recovery, summed
	Offered   uint64  // open-loop arrivals fired fleet-wide
	Served    uint64  // successful replies delivered
	Lost      uint64  // requests dropped (crash, partition/freeze reset) + arrivals never fired
	Avail     float64 // 1 - downtime / (tenants x run length)
	P999      uint64  // 99.9th-percentile sojourn, fleet-wide
	PolicyShr float64 // share of fleet cycles in the policy bucket
}

// E16Result is the experiment output.
type E16Result struct {
	Rows    []E16Row
	Metrics []CellMetrics
}

// RunE16 executes one cell per recovery story.
func RunE16(p E16Params) E16Result {
	cols := e16Cells()
	cells, cm := runCells("E16", len(cols), func(i int, rec *cellRecorder) E16Row {
		return runE16Cell(rec, p, cols[i])
	})
	return E16Result{Rows: cells, Metrics: cm}
}

// e16Tenant is one serving tenant: the fleet.Tenant hooks plus the
// host-side frontend that survives crashes and restores.
type e16Tenant struct {
	ten *fleet.Tenant
	srv *service.Server
}

// prepare wires an incarnation: handlers on every incarnation, the frontend
// once (then rebound onto each adopted or restored incarnation).
func (et *e16Tenant) prepare(p E16Params, idx int, t *fleet.Tenant, proc *libos.Process, first bool) error {
	heap := proc.Heap.PageVAs()
	proc.Handle("get", func(ctx *core.Context, arg uint64) (uint64, error) {
		obj := int(arg % uint64(len(heap)/e16ObjPages))
		for i := 0; i < e16ObjPages; i++ {
			ctx.Load(heap[obj*e16ObjPages+i])
		}
		return uint64(heap[obj*e16ObjPages]), nil
	})
	if first {
		srv, err := service.New(proc, service.Options{
			QueueCap: p.QueueCap,
			HistMax:  1 << 28,
		})
		if err != nil {
			return err
		}
		et.srv = srv
		for i := 0; i < p.Conns; i++ {
			if _, err := srv.Dial(); err != nil {
				return err
			}
		}
		if err := srv.Preload(service.OpenLoop{
			Arrivals: service.Poisson{MeanGap: p.MeanGap},
			Requests: p.Requests,
			Seed:     p.Seed + uint64(idx)*7919,
		}); err != nil {
			return err
		}
	} else if err := et.srv.Rebind(proc); err != nil {
		return err
	}
	// The idle hook must always point at the *current* node's scheduler.
	et.srv.Idle = t.Node().Sched.Yield
	return nil
}

func runE16Cell(rec *cellRecorder, p E16Params, cell e16Cell) E16Row {
	clock := sim.NewClock()
	clock.SetLimit(CellBudget())
	f := fleet.New(clock, cell.policy, p.Quantum)
	f.RebalanceEvery = p.RebalanceEvery
	e16Nodes(f)

	tenants := make([]*e16Tenant, p.Tenants)
	for i := 0; i < p.Tenants; i++ {
		i := i
		et := &e16Tenant{}
		et.ten = &fleet.Tenant{
			Name: fmt.Sprintf("tenant%d", i),
			Image: libos.AppImage{
				Name:      fmt.Sprintf("tenant%d", i),
				Libraries: []libos.Library{{Name: "libserve.so", Pages: 2}},
				HeapPages: p.HeapPages,
			},
			Config: libos.Config{
				SelfPaging:     true,
				Policy:         libos.PolicyRateLimit,
				QuotaPages:     p.QuotaPages,
				RateLimitBurst: 1 << 40,
				// Staggered priorities: failover restores the most important
				// tenants first when surviving capacity is tight.
				Priority: i % 3,
			},
			AdmitAfter: uint64(i) * p.AdmitGap,
			Prepare: func(t *fleet.Tenant, proc *libos.Process, first bool) error {
				return et.prepare(p, i, t, proc, first)
			},
			Body: func(t *fleet.Tenant, proc *libos.Process) error {
				return proc.Run(et.srv.Loop)
			},
			Pause:     func(t *fleet.Tenant) { et.srv.Drain() },
			Crash:     func(t *fleet.Tenant) uint64 { return et.srv.Crash() },
			Partition: func(t *fleet.Tenant, until uint64) { et.srv.Partition(until) },
		}
		tenants[i] = et
		f.Add(et.ten)
	}

	// Every cell builds its schedule from the same plan and seed: identical
	// failures at identical cycles, so the columns differ only in recovery.
	plan := chaos.Plan{
		Seed:            p.Seed,
		Horizon:         p.Horizon,
		Crashes:         p.Crashes,
		Freezes:         p.Freezes,
		Partitions:      p.Partitions,
		FreezeCycles:    p.FreezeCycles,
		PartitionCycles: p.PartitionCycles,
		MinAlive:        2,
	}
	sched, err := plan.Build(len(f.Nodes()))
	if err != nil {
		panic(fmt.Sprintf("E16 (%s): %v", cell.name, err))
	}
	var sup *chaos.Supervisor
	if cell.supervised {
		sup = &chaos.Supervisor{Deadline: p.Deadline}
		f.CheckpointEvery = p.CheckpointEvery
	}
	if err := chaos.Attach(f, sched, sup); err != nil {
		panic(fmt.Sprintf("E16 (%s): %v", cell.name, err))
	}

	if err := f.Run(); err != nil {
		panic(fmt.Sprintf("E16 (%s): %v", cell.name, err))
	}
	// The fleet-wide attribution invariant holds through crashes, restores
	// and sheds: every cycle on the shared clock is accounted.
	if err := f.CheckAccounting(); err != nil {
		panic(fmt.Sprintf("E16 (%s): %v", cell.name, err))
	}
	snap := metrics.Of(clock).Snapshot()
	rec.record(cell.name, snap)

	st := f.Stats()
	row := E16Row{
		Cell:      cell.name,
		Failures:  st.Failures,
		HBMissed:  st.HeartbeatsMissed,
		Failovers: st.Failovers,
		Restarts:  st.Restarts,
		Shed:      st.Shed,
		Downtime:  st.FailureDowntime,
		RPAge:     st.RecoveryPointAge,
	}
	hist := metrics.NewHistogram(1 << 28)
	for _, et := range tenants {
		if et.srv == nil {
			continue // never admitted (should not happen at this scale)
		}
		if err := checkLedger(et.srv, p.Requests); err != nil {
			panic(fmt.Sprintf("E16 (%s): %v", cell.name, err))
		}
		s := et.srv.Stats()
		row.Offered += s.Offered
		row.Served += s.Served
		// Lost closes the ledger: every admitted request dropped by a crash
		// or a partition/freeze reset, plus the arrivals that never fired —
		// the traffic a tenant that stayed down (or was shed) would have
		// served. With no backpressure, error replies or timeouts, served +
		// lost = scheduled.
		row.Lost += s.Dropped + uint64(et.srv.PendingSchedule())
		hist.Merge(et.srv.Hist())
	}
	row.P999 = hist.Percentile(0.999)
	total := clock.Cycles() * uint64(p.Tenants)
	if total > 0 {
		row.Avail = 1 - float64(row.Downtime)/float64(total)
	}
	row.PolicyShr = snap.Share(sim.CatPolicy)
	return row
}

// Table renders the result.
func (r E16Result) Table() *Table {
	t := &Table{
		Title: "E16: chaos fleet — crash-stop failures, supervised self-healing, availability",
		Note: "each cell: five machines (EPC 100/120/160/200/240 frames) under one clock, six open-loop serving\n" +
			"tenants, and one seeded failure schedule (3 crashes, 1 freeze, 1 partition) shared by every cell;\n" +
			"first-fit and watermark have no supervisor (crashed tenants stay down, their traffic is lost),\n" +
			"supervised adds heartbeat/watchdog detection, periodic checkpoints and restore-onto-survivors;\n" +
			"avail = 1 - downtime/(tenants x run length); the cycle account balances in every cell",
		Header: []string{"cell", "failures", "hb missed", "failovers", "restarts", "shed",
			"downtime", "rp age", "offered", "served", "lost", "avail", "p999", "policy share"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			row.Cell,
			fmt.Sprintf("%d", row.Failures),
			fmt.Sprintf("%d", row.HBMissed),
			fmt.Sprintf("%d", row.Failovers),
			fmt.Sprintf("%d", row.Restarts),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Downtime),
			fmt.Sprintf("%d", row.RPAge),
			fmt.Sprintf("%d", row.Offered),
			fmt.Sprintf("%d", row.Served),
			fmt.Sprintf("%d", row.Lost),
			fmt.Sprintf("%.3f%%", 100*row.Avail),
			fmt.Sprintf("%d", row.P999),
			fmt.Sprintf("%.1f%%", 100*row.PolicyShr),
		)
	}
	t.Metrics = r.Metrics
	return t
}
