// Command metriclint enforces the determinism discipline the golden tables
// rely on: the packages whose behavior must be a pure function of the
// simulated clock and their seeds may not import the wall clock ("time") or
// the process PRNG ("math/rand"); either would break byte-identical replay
// of a run at any -jobs.
//
// Cycle attribution needs no lint rule: sim.Clock charges only through
// ChargeAs (an explicit category), ChargeAmbient (a deliberate, greppable
// charge to the ambient category) and SetCategory scopes, so the compiler
// rejects any other charge.
//
// Exit status is non-zero if any violation is found. Run via `make check`.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// deterministic lists the packages whose behavior must be a pure function
// of the simulated clock and their seeds: fault plans roll injections from
// (seed, cycle, enclave, page), so any wall-clock or process-PRNG use would
// silently break run-to-run reproducibility. Importing time or math/rand
// there is rejected outright.
var deterministic = []string{
	"internal/fault",
	// The model checker's exploration (and its golden digest) must be a
	// pure function of (scenario, spec, depth).
	"internal/orderly",
	// Fleet placement, rebalancing and migration ordering must be a pure
	// function of the shared clock — E15's golden diff depends on it.
	"internal/fleet",
	// Failure schedules expand from sim.Rand and fire on clock rounds —
	// E16's golden diff depends on it.
	"internal/chaos",
}

// forbiddenImports are the nondeterminism sources banned in deterministic
// packages.
var forbiddenImports = map[string]string{
	"time":         "wall clock",
	"math/rand":    "process-global PRNG",
	"math/rand/v2": "process-global PRNG",
}

func main() {
	violations := 0
	for _, dir := range deterministic {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metriclint: %v\n", err)
			os.Exit(2)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				rel := filepath.ToSlash(name)
				for _, imp := range file.Imports {
					path := strings.Trim(imp.Path.Value, `"`)
					if why, bad := forbiddenImports[path]; bad {
						pos := fset.Position(imp.Pos())
						fmt.Fprintf(os.Stderr,
							"%s:%d:%d: import %q (%s) in deterministic package; decisions must be pure functions of (seed, clock, operation)\n",
							rel, pos.Line, pos.Column, path, why)
						violations++
					}
				}
			}
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d violation(s)\n", violations)
		os.Exit(1)
	}
}
