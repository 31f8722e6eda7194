package autarky

import (
	"fmt"

	"autarky/internal/libos"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/sched"
)

// Scheduler-facing types re-exported into the public API surface.
type (
	// SchedPolicy names a built-in scheduling policy for WithScheduler.
	SchedPolicy = sched.PolicyKind
	// TaskMetrics is one process's slice of the machine's cycle account.
	TaskMetrics = sched.TaskMetrics
	// SchedAccounting is the machine-wide cycle balance sheet: per-process
	// cycles + scheduler overhead + outside cycles == total machine cycles.
	SchedAccounting = sched.Accounting
)

// Scheduling policies for WithScheduler.
const (
	// SchedRoundRobin cycles through runnable processes in spawn order
	// (the default).
	SchedRoundRobin = sched.RoundRobin
	// SchedPriority always runs the runnable process with the highest
	// Config.Priority; ties rotate round-robin.
	SchedPriority = sched.Priority
)

// DefaultQuantum is the scheduler time slice, in cycles, used unless
// WithQuantum overrides it.
const DefaultQuantum = sched.DefaultQuantum

// Scheduler event counters, usable with MetricsSnapshot.Counter.
const (
	// CntSchedDispatches counts time slices granted (one per dispatch).
	CntSchedDispatches = metrics.CntSchedDispatches
	// CntSchedSwitches counts dispatches that changed the running process.
	CntSchedSwitches = metrics.CntSchedSwitches
	// CntSchedPreemptions counts involuntary quantum expirations.
	CntSchedPreemptions = metrics.CntSchedPreemptions
)

// WithScheduler selects the scheduling policy for the machine's dispatch
// loop. Unknown policy kinds are rejected at the first Spawn with a
// *ConfigError (errors.Is(err, ErrBadConfig)).
func WithScheduler(policy SchedPolicy) Option {
	return func(c *machineConfig) { c.schedPolicy = policy }
}

// WithQuantum sets the scheduler time slice in cycles. Zero means
// run-to-completion: processes are never preempted and yield only by
// finishing.
func WithQuantum(cycles uint64) Option {
	return func(c *machineConfig) { c.quantum = cycles }
}

// Proc is a scheduled enclave process on a Machine: the libOS process plus
// its seat in the machine's dispatch loop. Create one with Machine.Spawn;
// its embedded *libos.Process exposes the regions and allocator.
type Proc struct {
	*libos.Process
	m    *Machine
	task *sched.Task
}

// spawnSlotBytes is the ELRANGE stride between auto-placed enclaves: 1 GiB
// slots keep co-resident enclaves' address ranges disjoint (they share one
// page table) while leaving the layout deterministic and easy to eyeball.
const spawnSlotBytes = 1 << 30

// spawnSlot returns the address-space stride reserved for img: its footprint
// rounded up to whole 1 GiB slots.
func spawnSlot(img AppImage) mmu.VAddr {
	pages := img.DataPages + img.HeapPages + img.ReservePages
	stack := img.StackPages
	if stack == 0 {
		stack = 8 // the loader's default
	}
	pages += stack
	for i := range img.Libraries {
		pages += img.Libraries[i].TotalPages()
	}
	slots := (uint64(pages)*PageSize + spawnSlotBytes - 1) / spawnSlotBytes
	if slots == 0 {
		slots = 1
	}
	return mmu.VAddr(slots * spawnSlotBytes)
}

// ensureSched builds the machine's scheduler on first use.
func (m *Machine) ensureSched() error {
	if m.sched != nil {
		return nil
	}
	policy, err := sched.NewPolicy(m.schedPolicy)
	if err != nil {
		return &ConfigError{Field: "Scheduler", Reason: fmt.Sprintf("unknown policy kind %d", int(m.schedPolicy))}
	}
	m.sched = sched.New(m.Kernel, policy, m.quantum)
	return nil
}

// Spawn loads an application image as an enclave and registers it with the
// machine's scheduler. When cfg.Base is zero, each spawn receives its own
// disjoint ELRANGE slot, so any number of enclaves coexist on the machine.
// The process does not execute until Run (or Start) provides its entry
// function; co-resident processes then share the machine under the
// configured policy and quantum.
//
// Configuration problems — including scheduler ones — are reported as
// *ConfigError values matching errors.Is(err, ErrBadConfig).
func (m *Machine) Spawn(img AppImage, cfg Config) (*Proc, error) {
	if m.optErr != nil {
		return nil, m.optErr
	}
	if err := m.ensureSched(); err != nil {
		return nil, err
	}
	if cfg.Base == 0 {
		cfg.Base = m.nextBase
		m.nextBase += spawnSlot(img)
	}
	p, err := libos.Load(m.Kernel, m.Clock, m.Costs, img, cfg)
	if err != nil {
		return nil, err
	}
	return &Proc{Process: p, m: m}, nil
}

// Start registers app as the process body and enqueues the process for
// dispatch. It does not execute anything by itself — the machine advances
// only while some Proc.Wait (or Machine.WaitAll) drives the dispatch loop —
// so several processes can be started and then run concurrently. A process
// whose previous run finished may be started again (sequential runs reuse
// the loaded enclave); Start panics only while a run is still in flight.
func (p *Proc) Start(app func(*Context)) *Proc {
	if p.task != nil && !p.task.Done() {
		panic("autarky: Proc.Start while a previous run is still active")
	}
	proc := p.Process
	p.task = p.m.sched.Spawn(proc.Image.Name, proc.Config().Priority, proc.Proc, func() error {
		return proc.Run(app)
	})
	return p
}

// Wait drives the machine's dispatch loop until this process finishes and
// returns its error. Co-resident started processes receive time slices too.
// Wait panics if the process was never started.
func (p *Proc) Wait() error {
	if p.task == nil {
		panic("autarky: Proc.Wait before Start")
	}
	return p.m.sched.Wait(p.task)
}

// Run executes app inside the enclave under the machine scheduler until it
// returns or the enclave terminates: Start followed by Wait.
func (p *Proc) Run(app func(*Context)) error {
	return p.Start(app).Wait()
}

// Done reports whether the process has finished executing.
func (p *Proc) Done() bool { return p.task != nil && p.task.Done() }

// Metrics returns the process's scheduling account: cycles attributed to it,
// slices granted, and preemptions taken.
func (p *Proc) Metrics() TaskMetrics {
	if p.task == nil {
		return TaskMetrics{Name: p.Image.Name, Priority: p.Config().Priority}
	}
	return p.task.Metrics()
}

// WaitAll drives the dispatch loop until every started process on the
// machine is done and returns the first error in spawn order. A machine
// whose scheduler was never engaged returns nil.
func (m *Machine) WaitAll() error {
	if m.sched == nil {
		return nil
	}
	return m.sched.WaitAll()
}

// Accounting returns the machine-wide cycle balance sheet. Its components —
// per-process cycles, scheduler overhead, and cycles outside the scheduler
// (construction, loading, direct runs) — always sum to Machine.Cycles();
// SchedAccounting.Check verifies the invariant.
func (m *Machine) Accounting() SchedAccounting {
	if m.sched == nil {
		c := m.Clock.Cycles()
		return SchedAccounting{OutsideCycles: c, TotalCycles: c}
	}
	return m.sched.Accounting()
}
