package main

import (
	"crypto/rand"
	"time"

	"autarky"
	"autarky/internal/metrics"
	"autarky/internal/mmu"
	"autarky/internal/pagestore"
)

// layerCounts records the simulated figures of a timed phase from the sum
// of its machines' metric deltas: cycles per operation, attribution shares
// and per-layer event counts per thousand operations.
func (r *rep) layerCounts(d autarky.MetricsSnapshot, ops int) {
	n := float64(ops)
	perKop := func(c metrics.Counter) float64 { return ratio(float64(d.Counter(c))*1000, n) }
	count := func(c metrics.Counter) float64 { return float64(d.Counter(c)) }
	s := r.sim
	s["sim_kcycles_per_op"] = ratio(float64(d.Cycles)/1e3, n)
	s["sim.compute_share"] = d.Share(autarky.CatCompute)
	s["sim.paging_share"] = d.Share(autarky.CatPaging)
	s["sim.crypto_share"] = d.Share(autarky.CatCrypto)
	s["sim.fault_share"] = d.Share(autarky.CatFault)
	s["sim.policy_share"] = d.Share(autarky.CatPolicy)
	s["mmu.tlb_hit_ratio"] = ratio(count(metrics.CntTLBHits), count(metrics.CntTLBHits)+count(metrics.CntTLBMisses))
	s["mmu.tlb_flushes_per_kop"] = perKop(metrics.CntTLBFlushes)
	s["sgx.ewb_per_kop"] = perKop(metrics.CntEWB)
	s["sgx.eldu_per_kop"] = perKop(metrics.CntELDU)
	s["sgx.eaug_per_kop"] = perKop(metrics.CntEAUG)
	s["sgx.aex_per_kop"] = perKop(metrics.CntAEXs)
	s["core.faults_per_kop"] = perKop(metrics.CntHandlerRuns)
	s["core.pages_per_fault"] = ratio(count(metrics.CntPagesFetched), count(metrics.CntHandlerRuns))
	s["hostos.driver_calls_per_kop"] = perKop(metrics.CntDriverCalls)
	s["hostos.pages_per_driver_call"] = ratio(count(metrics.CntDriverFetches)+count(metrics.CntDriverEvicts), count(metrics.CntDriverCalls))
	s["sched.dispatches_per_kop"] = perKop(metrics.CntSchedDispatches)
	s["sched.preemptions_per_kop"] = perKop(metrics.CntSchedPreemptions)
}

// backendHost records the paging-backend timings of a traced rep: the
// median evict and fetch call and the share of the timed phase spent
// inside the backend stack.
func backendHost(r *rep, tr *tracer) {
	r.host["pagestore.evict_ns"] = quantile(tr.durations("pagestore.evict"), 0.5)
	r.host["pagestore.fetch_ns"] = quantile(tr.durations("pagestore.fetch"), 0.5)
	busy := tr.total("pagestore.evict") + tr.total("pagestore.fetch") + tr.total("pagestore.drop")
	r.host["pagestore.busy_frac"] = ratio(busy, float64(r.elapsed))
}

// sealFloor measures direct AES-GCM sealing and opening of one 4 KiB page,
// the floor under every paging and migration path: the median over several
// batches of the mean time per call.
func sealFloor(r *rep) error {
	const batches, calls = 7, 500
	s, err := pagestore.NewSealer([]byte("perfbench-seal-floor"), 1)
	if err != nil {
		return err
	}
	plain := make([]byte, mmu.PageSize)
	if _, err := rand.Read(plain); err != nil {
		return err
	}
	va := mmu.VAddr(0x10000)
	ct, err := s.SealAppend(nil, va, 1, plain)
	if err != nil {
		return err
	}
	blob := pagestore.Blob{Ciphertext: ct, Version: 1, EnclaveID: 1}
	sealBuf, openBuf := make([]byte, 0, len(ct)), make([]byte, 0, len(plain))
	var seal, open []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if sealBuf, err = s.SealAppend(sealBuf[:0], va, 1, plain); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for i := 0; i < calls; i++ {
			if openBuf, err = s.OpenAppend(openBuf[:0], va, 1, blob); err != nil {
				return err
			}
		}
		seal = append(seal, float64(t1.Sub(t0))/calls)
		open = append(open, float64(time.Since(t1))/calls)
	}
	r.host["pagestore.seal_ns"] = median(seal)
	r.host["pagestore.open_ns"] = median(open)
	return nil
}
