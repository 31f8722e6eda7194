package main

import (
	"reflect"
	"testing"
)

// TestShortRuns runs every workload of BENCHMARK.json at small size,
// untraced and traced, and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units, and that simulated figures repeat
// exactly across runs on one seed.
func TestShortRuns(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", sw.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var sims []map[string]float64
			for _, trace := range []bool{false, true} {
				cfg := config{workload: w, seed: 7, trace: trace, short: true, spansDir: t.TempDir()}
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := report(cfg, out)
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				if trace {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
					if out.spansPath == "" {
						t.Error("traced run wrote no span file")
					}
				} else {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				got := map[string]string{}
				for name, v := range res.Metrics {
					got[name] = v.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: emitted metrics and units\n%v\nwant\n%v", trace, got, want)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("trace=%v: result %+v", trace, res)
				}
				sims = append(sims, out.untraced[0].sim)
			}
			if !reflect.DeepEqual(sims[0], sims[1]) {
				t.Errorf("simulated figures differ between two runs on one seed:\n%s", simDiff(sims[0], sims[1]))
			}
		})
	}
}

// TestEndToEndNeverZero checks that no end-to-end metric reads 0 on any
// workload.
func TestEndToEndNeverZero(t *testing.T) {
	for _, w := range workloads {
		cfg := config{workload: w, seed: 3, short: true}
		out, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := report(cfg, out)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range res.Metrics {
			if v.Value == 0 {
				t.Errorf("%s: %s is 0", w.name, name)
			}
		}
	}
}

// TestMigrateDrillAdopted runs the migrate workload at small size with the
// drill's freshness check off, so every drill adopt succeeds as it will once
// a restored copy gets a fresh epoch. The adopted copy is then retired by
// one more Quiesce, and the adopt-count gate must account for it.
func TestMigrateDrillAdopted(t *testing.T) {
	if err := calMemory(); err != nil {
		t.Fatal(err)
	}
	var w *migrateRun
	r, err := measure(func() (phase, error) {
		var err error
		if w, err = newMigrateRun(5, true, nil); err != nil {
			return phase{}, err
		}
		w.drillCounters = nil
		return w.timed(), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.drills == 0 || w.refusals != 0 || w.retires != w.drills {
		t.Errorf("%d drills, %d refusals, %d retires; want every drill adopted and retired", w.drills, w.refusals, w.retires)
	}
	if r.failed != 0 || r.attempted != w.sz.moves+w.drills {
		t.Errorf("attempted %d, failed %d; want %d, 0", r.attempted, r.failed, w.sz.moves+w.drills)
	}
}
