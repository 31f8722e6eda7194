package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"autarky/internal/orderly"
)

// The orderly workload: the orderliness model checker (orderly.Run) over
// the default scenarios at E13's depth. The search is exhaustive, so the
// seed does not change it. It builds many short-lived machines and replays
// lifecycle prefixes, checkpoint and restore among them. One operation is
// one explored interleaving.

const (
	orderlyDepth     = 8 // E13's depth, which the golden table records
	orderlyWarmDepth = 3
	orderlyGolden    = "testdata/e13_orderliness.golden"
)

// orderlyRow is one scenario's line of the golden table.
type orderlyRow struct {
	interleavings, states, transitions, pruned, violations int
	digest                                                 string
}

// findRepoFile locates rel from the repository root, which is the working
// directory or, for the self-test, its parent.
func findRepoFile(rel string) (string, error) {
	for _, dir := range []string{".", ".."} {
		p := filepath.Join(dir, rel)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("%s not found from the repository root", rel)
}

// readGolden parses the scenario rows of the E13 golden table.
func readGolden() (map[string]orderlyRow, error) {
	path, err := findRepoFile(orderlyGolden)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	scenarios := map[string]bool{}
	for _, sc := range orderly.DefaultScenarios() {
		scenarios[sc.Name] = true
	}
	rows := map[string]orderlyRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// scenario interleavings states transitions pruned skipped ok refused terms violations digest
		fs := strings.Fields(sc.Text())
		if len(fs) != 11 || !scenarios[fs[0]] {
			continue
		}
		var n [9]int
		for i := range n {
			if n[i], err = strconv.Atoi(fs[i+1]); err != nil {
				return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
			}
		}
		rows[fs[0]] = orderlyRow{interleavings: n[0], states: n[1], transitions: n[2],
			pruned: n[3], violations: n[8], digest: fs[10]}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) != len(scenarios) {
		return nil, fmt.Errorf("%s: %d of %d scenario rows", path, len(rows), len(scenarios))
	}
	return rows, nil
}

// orderlyScenarios returns the scenarios a run explores: all of them, or in
// short mode the cheapest one.
func orderlyScenarios(short bool) []orderly.Scenario {
	all := orderly.DefaultScenarios()
	if !short {
		return all
	}
	sc, _ := orderly.ScenarioByName("sp-sgx2")
	return []orderly.Scenario{sc}
}

func prepareOrderly(_ uint64, short bool, tr *tracer) (phase, error) {
	golden, err := readGolden()
	if err != nil {
		return phase{}, err
	}
	scenarios := orderlyScenarios(short)
	for _, sc := range scenarios {
		orderly.Run(orderly.Config{Scenario: sc, MaxDepth: orderlyWarmDepth})
	}

	results := make([]orderly.Result, len(scenarios))
	return phase{
		run: func(pause func()) error {
			for i, sc := range scenarios {
				if i > 0 {
					pause()
				}
				tr.setOp(i)
				s := tr.begin("orderly.scenario")
				results[i] = orderly.Run(orderly.Config{Scenario: sc, MaxDepth: orderlyDepth})
				tr.end(s)
			}
			return nil
		},
		finish: func(rp *rep) error {
			var sum orderlyRow
			for _, res := range results {
				row := orderlyRow{interleavings: res.Interleavings, states: res.States,
					transitions: res.Transitions, pruned: res.Pruned,
					violations: len(res.Violations), digest: fmt.Sprintf("%016x", res.Digest)}
				if row != golden[res.Scenario] {
					return fmt.Errorf("orderly: scenario %s explored %+v, golden %+v", res.Scenario, row, golden[res.Scenario])
				}
				sum.interleavings += row.interleavings
				sum.transitions += row.transitions
				sum.pruned += row.pruned
				sum.violations += row.violations
			}
			rp.ops = sum.interleavings
			rp.attempted = sum.interleavings
			rp.failed = sum.violations
			rp.sim["orderly.transitions_per_interleaving"] = ratio(float64(sum.transitions), float64(sum.interleavings))
			rp.sim["orderly.pruned_frac"] = ratio(float64(sum.pruned), float64(sum.interleavings))
			return nil
		},
	}, nil
}

// orderlyHost derives the checker's host time per applied transition.
func orderlyHost(r *rep, tr *tracer) {
	transitions := r.sim["orderly.transitions_per_interleaving"] * float64(r.ops)
	r.host["orderly.transition_us"] = ratio(tr.total("orderly.scenario")/1e3, transitions)
}
