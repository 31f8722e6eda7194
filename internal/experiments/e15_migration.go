package experiments

import (
	"fmt"

	"autarky/internal/core"
	"autarky/internal/fleet"
	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/service"
	"autarky/internal/sim"
)

// E15 — live migration under elastic rebalancing: tenant churn over a
// heterogeneous fleet. Each cell is one fleet of four machines (different
// EPC geometries, two of them with slower software crypto) under a single
// deterministic clock; serving tenants arrive in admission waves, each
// fronted by an open-loop client population, and the placement policy
// decides where they land and whether pressure moves them. The grid sweeps
// the placement policy: first-fit packs and never moves (the static
// baseline), watermark packs and then sheds load from machines above the
// High occupancy mark onto machines below Low.
//
// Expected shape: first-fit piles the early waves onto the first machine
// and rides out the pressure — zero migrations, the worst tail. Watermark
// pays a visible price (migration downtime, rebalance scans in the policy
// bucket, a p999 spike around the move window) to spread the same load,
// and ends with more headroom on the hot machine. Either way the fleet's
// cross-machine cycle account must balance: a migrated tenant's source and
// destination shares sum to exactly its machine-clock share.

// E15Params sizes the experiment.
type E15Params struct {
	Tenants        int     // serving tenants admitted in waves
	Conns          int     // client connections per tenant
	Requests       int     // open-loop requests per tenant
	MeanGap        float64 // mean cycles between a tenant's arrivals
	Burst          int     // burst size of the bursty tenants
	HeapPages      int     // tenant heap (the touched working set)
	QuotaPages     int     // EPC residency quota (also the placement footprint)
	QueueCap       int     // per-connection queue bound
	Quantum        uint64  // node scheduler time slice
	RebalanceEvery int     // policy scan cadence in fleet rounds
	AdmitGap       uint64  // cycles between admission waves
	Seed           uint64
}

// DefaultE15Params returns the benchmark-scale configuration: six tenants
// arriving in waves over a four-machine fleet whose first machine can hold
// only two of them. The quota leaves a sliver of the heap paging so the
// secure policies stay exercised, but placement pressure — not paging — is
// what separates the policy columns.
func DefaultE15Params() E15Params {
	return E15Params{
		Tenants:        6,
		Conns:          4,
		Requests:       300,
		MeanGap:        600_000,
		Burst:          8,
		HeapPages:      48,
		QuotaPages:     44,
		QueueCap:       64,
		Quantum:        60_000,
		RebalanceEvery: 8,
		AdmitGap:       2_000_000,
		Seed:           0xE15,
	}
}

// e15Nodes describes the heterogeneous fleet: four machines with different
// EPC geometries; the two larger ones pay double for software page crypto
// (cheaper fabs, slower AES paths), so adopting a tenant there re-seals its
// pages at the destination's price, not the source's.
func e15Nodes(f *fleet.Fleet) {
	fast := sim.DefaultCosts()
	slow := sim.DefaultCosts()
	slow.SWEncryptPage *= 2
	slow.SWDecryptPage *= 2
	f.AddNode("m0", 100, fast)
	f.AddNode("m1", 120, fast)
	f.AddNode("m2", 160, slow)
	f.AddNode("m3", 200, slow)
}

// e15Policies lists the placement-policy columns of the sweep.
func e15Policies() []fleet.Policy {
	return []fleet.Policy{
		fleet.FirstFit{},
		fleet.Watermark{High: 0.70, Low: 0.50, Cooldown: 50},
	}
}

// e15ObjPages is the object size every request touches (one rate-limit
// object = four page-granular touches).
const e15ObjPages = 4

// E15Row is one placement-policy cell.
type E15Row struct {
	Policy     string
	Migrations int     // completed tenant moves
	Rebalances int     // policy scans that moved at least one tenant
	Downtime   uint64  // total cycles tenants spent paused mid-move
	Offered    uint64  // open-loop arrivals fired fleet-wide
	Served     uint64  // successful replies delivered
	Shed       uint64  // backpressure refusals + deadline sheds
	P50        uint64  // median sojourn, cycles, fleet-wide
	P99        uint64  // 99th-percentile sojourn
	P999       uint64  // 99.9th-percentile sojourn
	P999Move   uint64  // fleet-wide p999 observed at the first migration (0 = never moved)
	HotFree    int     // free EPC frames on the first machine at the end
	PolicyShar float64 // share of fleet cycles in the policy bucket
}

// E15Result is the experiment output.
type E15Result struct {
	Rows    []E15Row
	Metrics []CellMetrics
}

// RunE15 executes one cell per placement policy.
func RunE15(p E15Params) E15Result {
	pols := e15Policies()
	cells, cm := runCells("E15", len(pols), func(i int, rec *cellRecorder) E15Row {
		return runE15Cell(rec, p, pols[i])
	})
	return E15Result{Rows: cells, Metrics: cm}
}

// e15Tenant is one serving tenant: the fleet.Tenant hooks plus the
// host-side frontend that survives the tenant's moves between machines.
type e15Tenant struct {
	ten *fleet.Tenant
	srv *service.Server
}

// prepare wires an incarnation: handlers on every incarnation, the
// frontend once (then rebound onto each adopted incarnation).
func (et *e15Tenant) prepare(p E15Params, idx int, t *fleet.Tenant, proc *libos.Process, first bool) error {
	heap := proc.Heap.PageVAs()
	proc.Handle("get", func(ctx *core.Context, arg uint64) (uint64, error) {
		obj := int(arg % uint64(len(heap)/e15ObjPages))
		for i := 0; i < e15ObjPages; i++ {
			ctx.Load(heap[obj*e15ObjPages+i])
		}
		return uint64(heap[obj*e15ObjPages]), nil
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
		var arr service.ArrivalProcess = service.Poisson{MeanGap: p.MeanGap}
		if idx%2 == 1 {
			arr = &service.Bursty{MeanGap: p.MeanGap, Burst: p.Burst}
		}
		if err := srv.Preload(service.OpenLoop{
			Arrivals: arr,
			Requests: p.Requests,
			Seed:     p.Seed + uint64(idx)*7919,
		}); err != nil {
			return err
		}
	} else if err := et.srv.Rebind(proc); err != nil {
		return err
	}
	// The idle hook must always point at the *current* node's scheduler, or
	// an idle dispatch loop would busy-poll its whole quantum.
	et.srv.Idle = t.Node().Sched.Yield
	return nil
}

func runE15Cell(rec *cellRecorder, p E15Params, pol fleet.Policy) E15Row {
	clock := sim.NewClock()
	clock.SetLimit(CellBudget())
	f := fleet.New(clock, pol, p.Quantum)
	f.RebalanceEvery = p.RebalanceEvery
	e15Nodes(f)

	tenants := make([]*e15Tenant, p.Tenants)
	for i := 0; i < p.Tenants; i++ {
		i := i
		et := &e15Tenant{}
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
			},
			AdmitAfter: uint64(i) * p.AdmitGap,
			Prepare: func(t *fleet.Tenant, proc *libos.Process, first bool) error {
				return et.prepare(p, i, t, proc, first)
			},
			Body: func(t *fleet.Tenant, proc *libos.Process) error {
				return proc.Run(et.srv.Loop)
			},
			Pause: func(t *fleet.Tenant) { et.srv.Drain() },
		}
		tenants[i] = et
		f.Add(et.ten)
	}

	row := E15Row{Policy: pol.Name()}
	merged := func() *metrics.Histogram {
		h := metrics.NewHistogram(1 << 28)
		for _, et := range tenants {
			if et.srv != nil {
				h.Merge(et.srv.Hist())
			}
		}
		return h
	}
	f.OnMigrate = func(t *fleet.Tenant, from, to *fleet.Node) {
		if row.P999Move == 0 {
			// The tail the clients had seen up to the first move: the
			// baseline the post-migration tail is judged against.
			row.P999Move = merged().Percentile(0.999)
		}
	}

	if err := f.Run(); err != nil {
		panic(fmt.Sprintf("E15 (%s): %v", pol.Name(), err))
	}
	// The fleet-wide attribution invariant is part of the experiment's
	// contract, not just a test: a migrated tenant's source and destination
	// cycle shares must sum to its machine-clock account.
	if err := f.CheckAccounting(); err != nil {
		panic(fmt.Sprintf("E15 (%s): %v", pol.Name(), err))
	}
	snap := metrics.Of(clock).Snapshot()
	rec.record(pol.Name(), snap)

	st := f.Stats()
	row.Migrations = st.Migrations
	row.Rebalances = st.Rebalances
	row.Downtime = st.DowntimeCycles
	for _, et := range tenants {
		if err := checkLedger(et.srv, p.Requests); err != nil {
			panic(fmt.Sprintf("E15 (%s): %v", pol.Name(), err))
		}
		s := et.srv.Stats()
		row.Offered += s.Offered
		row.Served += s.Served
		row.Shed += s.Backpressure + s.Timeouts
	}
	hist := merged()
	row.P50 = hist.Percentile(0.50)
	row.P99 = hist.Percentile(0.99)
	row.P999 = hist.Percentile(0.999)
	row.HotFree = f.Nodes()[0].FreeFrames()
	row.PolicyShar = snap.Share(sim.CatPolicy)
	return row
}

// Table renders the result.
func (r E15Result) Table() *Table {
	t := &Table{
		Title: "E15: live migration — tenant churn over a heterogeneous fleet per placement policy",
		Note: "each cell: four machines (EPC 100/120/160/200 frames, two with 2x software crypto) under one\n" +
			"clock, six serving tenants in admission waves; first-fit packs and never moves, watermark sheds\n" +
			"load above 70% occupancy onto machines below 50%; downtime and the policy share price elasticity,\n" +
			"and the cross-machine cycle account balances either way",
		Header: []string{"policy", "migrations", "rebalances", "downtime", "offered", "served",
			"shed", "p50", "p99", "p999", "p999@move", "hot free", "policy share"},
	}
	for _, row := range r.Rows {
		move := "-"
		if row.Migrations > 0 {
			move = fmt.Sprintf("%d", row.P999Move)
		}
		t.AddRow(
			row.Policy,
			fmt.Sprintf("%d", row.Migrations),
			fmt.Sprintf("%d", row.Rebalances),
			fmt.Sprintf("%d", row.Downtime),
			fmt.Sprintf("%d", row.Offered),
			fmt.Sprintf("%d", row.Served),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.P50),
			fmt.Sprintf("%d", row.P99),
			fmt.Sprintf("%d", row.P999),
			move,
			fmt.Sprintf("%d", row.HotFree),
			fmt.Sprintf("%.1f%%", 100*row.PolicyShar),
		)
	}
	t.Metrics = r.Metrics
	return t
}
