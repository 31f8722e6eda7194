package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autarky/internal/experiments"
)

var updateGoldens = flag.Bool("update", false, "rewrite the experiment goldens and goldens.sum from a -jobs 1 run")

// goldenDir holds every committed experiment table; goldenSum pins the
// sha256 of each table's JSON form (rows plus per-cell metrics).
var (
	goldenDir = filepath.Join("..", "..", "testdata")
	goldenSum = filepath.Join(goldenDir, "goldens.sum")
)

// bench runs the CLI in-process and returns (exit code, stdout, stderr).
func bench(args ...string) (int, string, string) {
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// goldenName is the base name of an experiment's golden table:
// "<alias>_<name>" when the entry has an alias (e3_fig6), else "<name>".
func goldenName(e experiment) string {
	if len(e.names) > 1 {
		return e.names[1] + "_" + e.names[0]
	}
	return e.names[0]
}

// scale1Run is one experiment's scale-1 table and runSafe's verdict.
type scale1Run struct {
	tab *experiments.Table
	ok  bool
}

// scale1Jobs8 memoizes every experiment's scale-1 run on an 8-worker pool,
// so TestEveryExperimentSmoke and TestGoldens execute each experiment once.
var scale1Jobs8 = map[string]scale1Run{}

// runScale1 runs one experiment at scale 1 and the given worker count
// through the CLI's runSafe; runs at -jobs 8 are memoized.
func runScale1(e experiment, jobs int) (*experiments.Table, bool) {
	if r, hit := scale1Jobs8[e.names[0]]; hit && jobs == 8 {
		return r.tab, r.ok
	}
	experiments.SetJobs(jobs)
	tab, ok := runSafe(e.names[0], 1, e.run)
	if jobs == 8 {
		scale1Jobs8[e.names[0]] = scale1Run{tab, ok}
	}
	return tab, ok
}

// TestEveryExperimentSmoke runs every experiment at scale 1: each must
// succeed and print a table. Aliases resolve to the same registry entry
// (TestAliasesSelectSameExperiment), so each experiment only needs to
// execute once; TestGoldens then diffs the same run against its golden.
func TestEveryExperimentSmoke(t *testing.T) {
	t.Cleanup(func() { experiments.SetJobs(0) })
	for _, e := range registry {
		name := e.names[0]
		t.Run(name, func(t *testing.T) {
			tab, ok := runScale1(e, 8)
			var sb strings.Builder
			tab.Fprint(&sb)
			out := sb.String()
			if !ok || strings.Contains(out, "FAILED") {
				t.Fatalf("-exp %s reported a failed experiment:\n%s", name, out)
			}
			if !strings.Contains(out, "== ") {
				t.Fatalf("-exp %s printed no table:\n%s", name, out)
			}
		})
	}
}

// renderGolden runs one experiment at scale 1 and the given worker count,
// and returns its text table and the hex sha256 of its JSON form.
func renderGolden(t *testing.T, e experiment, jobs int) (text, sum string) {
	t.Helper()
	tab, ok := runScale1(e, jobs)
	var sb strings.Builder
	tab.Fprint(&sb)
	if !ok || strings.Contains(tab.Title, "FAILED") {
		t.Fatalf("-exp %s failed at -jobs %d:\n%s", e.names[0], jobs, sb.String())
	}
	if len(tab.Metrics) == 0 {
		t.Fatalf("-exp %s reports no cell metrics", e.names[0])
	}
	if err := experiments.CheckAttribution(tab.Metrics); err != nil {
		t.Fatalf("-exp %s attribution invariant: %v", e.names[0], err)
	}
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("marshal %s: %v", e.names[0], err)
	}
	h := sha256.Sum256(b)
	return sb.String(), hex.EncodeToString(h[:])
}

// readGoldenSum parses goldens.sum: one "<sha256>  <golden name>" per line.
func readGoldenSum(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenSum)
	if err != nil {
		if *updateGoldens && os.IsNotExist(err) {
			return map[string]string{}
		}
		t.Fatalf("read %s (regenerate with -update): %v", goldenSum, err)
	}
	sums := map[string]string{}
	for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != sha256.Size*2 || sums[name] != "" {
			t.Fatalf("%s:%d: malformed or duplicate line %q", goldenSum, i+1, line)
		}
		sums[name] = sum
	}
	return sums
}

// TestGoldens is the repository's one golden mechanism: every registry
// entry's scale-1 table is pinned byte for byte in testdata/<golden>.golden,
// and the sha256 of its JSON form (per-cell metrics included) in
// testdata/goldens.sum. Each subtest runs its experiment on an 8-worker
// pool, so a match also proves the table is independent of concurrency.
// The golden set is closed: a registry entry without a golden, or a golden
// or sum line without a registry entry, fails.
//
// After an intentional model change, regenerate with
//
//	go test ./cmd/autarky-bench -run TestGoldens -update
//
// which writes both files from a -jobs 1 run, re-runs each table at -jobs 8
// in the same process and requires identical output.
func TestGoldens(t *testing.T) {
	t.Cleanup(func() { experiments.SetJobs(0) })
	sums := readGoldenSum(t)
	known := map[string]bool{}
	for _, e := range registry {
		name := goldenName(e)
		known[name] = true
		t.Run(e.names[0], func(t *testing.T) {
			path := filepath.Join(goldenDir, name+".golden")
			if *updateGoldens {
				text, sum := renderGolden(t, e, 1)
				if text8, sum8 := renderGolden(t, e, 8); text8 != text || sum8 != sum {
					t.Fatalf("-jobs 1 and -jobs 8 differ:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", text, text8)
				}
				if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
				sums[name] = sum
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read %s (regenerate with -update): %v", path, err)
			}
			text, sum := renderGolden(t, e, 8)
			if text != string(want) {
				t.Errorf("table differs from %s:\n--- golden ---\n%s\n--- got ---\n%s", path, want, text)
			}
			if sums[name] != sum {
				t.Errorf("JSON sha256 %s, %s pins %q for %s", sum, goldenSum, sums[name], name)
			}
		})
	}

	files, err := filepath.Glob(filepath.Join(goldenDir, "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".golden"); !known[name] {
			t.Errorf("%s has no registry entry", f)
		}
	}
	if *updateGoldens {
		var sb strings.Builder
		for _, e := range registry {
			if sum := sums[goldenName(e)]; sum != "" {
				fmt.Fprintf(&sb, "%s  %s\n", sum, goldenName(e))
			}
		}
		if err := os.WriteFile(goldenSum, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range sums {
		if !known[name] {
			t.Errorf("%s line %q has no registry entry", goldenSum, name)
		}
	}
}

// TestAliasesSelectSameExperiment checks -exp resolution for every name
// without paying for a second run of each experiment.
func TestAliasesSelectSameExperiment(t *testing.T) {
	for _, e := range registry {
		for _, name := range e.names {
			got := selected(name)
			if len(got) != 1 || got[0].names[0] != e.names[0] {
				t.Errorf("-exp %s resolves to %v, want %s", name, got, e.names[0])
			}
			upper := selected(strings.ToUpper(name))
			if len(upper) != 1 || upper[0].names[0] != e.names[0] {
				t.Errorf("-exp %s (uppercase) resolves to %v, want %s", name, upper, e.names[0])
			}
		}
	}
	if got := selected("all"); len(got) != len(registry) {
		t.Errorf(`selected("all") returned %d entries, want %d`, len(got), len(registry))
	}
	if got := selected("nonesuch"); got != nil {
		t.Errorf(`selected("nonesuch") = %v, want nil`, got)
	}
}

func TestJSONOutputRoundTrips(t *testing.T) {
	code, out, errw := bench("-exp", "e1", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errw)
	}
	var rep experiments.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out)
	}
	if len(rep.Tables) != 1 {
		t.Fatalf("%d tables, want 1", len(rep.Tables))
	}
	tab := rep.Tables[0]
	if tab.Title == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
		t.Fatalf("degenerate table after round trip: %+v", tab)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(tab.Header))
		}
	}
}

// TestJobsFlagDeterminism is the CLI-level determinism check: the same
// invocation at -jobs 1 and -jobs 8 must produce identical bytes.
func TestJobsFlagDeterminism(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		code1, seq, _ := bench("-exp", "fig5", "-jobs", "1", "-format", format)
		code8, par, _ := bench("-exp", "fig5", "-jobs", "8", "-format", format)
		if code1 != 0 || code8 != 0 {
			t.Fatalf("exits %d/%d", code1, code8)
		}
		if seq != par {
			t.Fatalf("%s output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s",
				format, seq, par)
		}
	}
}

func TestBadUsage(t *testing.T) {
	if code, _, errw := bench("-exp", "nonesuch"); code != 2 || !strings.Contains(errw, "unknown experiment") {
		t.Fatalf("unknown experiment: exit %d, stderr %q", code, errw)
	}
	if code, _, _ := bench("-format", "yaml"); code != 2 {
		t.Fatalf("unknown format accepted")
	}
	if code, _, _ := bench("-nonsense"); code != 2 {
		t.Fatalf("unknown flag accepted")
	}
}

// TestBudgetFailureIsIsolated forces a cycle-budget overrun: the affected
// experiment must report an error table and a nonzero exit, without
// panicking the process.
func TestBudgetFailureIsIsolated(t *testing.T) {
	defer experiments.SetCellBudget(0)
	code, out, errw := bench("-exp", "e1", "-budget", "1000")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errw)
	}
	if !strings.Contains(out, "FAILED") || !strings.Contains(out, "cycle limit") {
		t.Fatalf("no error table for budget overrun:\n%s", out)
	}
	if !strings.Contains(errw, "1 experiment(s) failed") {
		t.Fatalf("stderr missing failure count: %q", errw)
	}
}

func TestRegistryAliasesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range registry {
		if len(e.names) == 0 {
			t.Fatal("registry entry with no names")
		}
		for _, n := range e.names {
			if seen[n] {
				t.Fatalf("duplicate experiment name %q", n)
			}
			seen[n] = true
		}
	}
	if seen["all"] {
		t.Fatal(`"all" must not name a single experiment`)
	}
}
