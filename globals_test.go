package vasppower_test

import (
	"go/ast"
	"go/types"
	"sort"
	"testing"
)

// processGlobals lists the package-level variables under internal/ that
// may stay, each with the reason it cannot make what a run reports
// depend on what else ran in the process. A sync.Pool or an errors.New
// sentinel needs no entry; any other variable does, and result-bearing
// state belongs in a run's experiments.Env instead.
var processGlobals = map[string]string{
	"internal/experiments.defaultEnv": "the run environment behind CachedMeasureSpec, CachedMeasureGroup, ResetCache, Instrument and serve's nil-Measure default, which the perfbench harness drives in process; it goes once the harness builds an Env of its own",

	"internal/hw/platform.registry": "init-only platform registry: every platform registers in an init function, and lookups only read it",
	"internal/hw/platform.regMu":    "guards the init-only platform registry",

	"internal/hw/gpu.defaultModel":            "immutable default efficiency table, built once at package init",
	"internal/workloads.tableI":               "immutable Table I benchmark list, built once at package init",
	"internal/sched.mixSuite":                 "immutable synthetic job-mix table, built once at package init",
	"internal/report.sparkRunes":              "immutable sparkline glyph table",
	"internal/memo.waitBucketsMS":             "immutable histogram bucket bounds",
	"internal/par.itemBucketsMS":              "immutable histogram bucket bounds",
	"internal/serve.latencyBucketsMS":         "immutable histogram bucket bounds",
	"internal/serve.jsonCT":                   "immutable header value every response shares",
	"internal/serve.xCacheHit":                "immutable header value every response shares",
	"internal/serve.xCacheMiss":               "immutable header value every response shares",
	"internal/serve.retryAfter":               "immutable header value every response shares",
	"internal/telemetry/promexp.metricNameRe": "compiled regular expression, immutable",
	"internal/telemetry/promexp.labelNameRe":  "compiled regular expression, immutable",
	"internal/telemetry/promexp.typeRe":       "compiled regular expression, immutable",

	"internal/par.metrics":        "metric hook: counts only and is never read by a result; process-wide while the perfbench harness instruments in process through experiments.Instrument",
	"internal/sched.metrics":      "metric hook: counts only and is never read by a result; process-wide while the perfbench harness instruments in process through experiments.Instrument",
	"internal/sim.metrics":        "metric hook: counts only and is never read by a result; process-wide while the perfbench harness instruments in process through experiments.Instrument",
	"internal/omni.metrics":       "metric hook: counts only and is never read by a result; process-wide while the perfbench harness instruments in process through experiments.Instrument",
	"internal/timeseries.metrics": "metric hook: counts only and is never read by a result; process-wide while the perfbench harness instruments in process through experiments.Instrument",
	"internal/telemetry.metrics":  "metric hook: counts only and is never read by a result; process-wide while the perfbench harness instruments in process through experiments.Instrument",

	"internal/workloads.activeSweeps": "live sweep-arena count that tests read to catch leaks; no result reads it",
}

// TestNoProcessGlobals fails on any package-level variable under
// internal/ that is neither a sync.Pool, an errors.New sentinel, nor
// on the processGlobals allowlist, and on allowlist entries that no
// longer name one.
func TestNoProcessGlobals(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	prog, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	got := processGlobalVars(prog)
	seen := map[string]bool{}
	for _, id := range got {
		seen[id] = true
		if _, ok := processGlobals[id]; !ok {
			t.Errorf("%s: package-level variable; move it into a run's experiments.Env, make it a constant or a function, or allowlist it with the reason it cannot change a result", id)
		}
	}
	for id := range processGlobals {
		if !seen[id] {
			t.Errorf("allowlist entry %s is stale: no such package-level variable", id)
		}
	}
}

// processGlobalVars returns, sorted, every package-level variable
// declared in a non-test file under an internal/ directory of prog's
// first module, except sync.Pools and errors.New sentinels.
func processGlobalVars(prog *program) []string {
	main := prog.mods[0]
	var out []string
	for _, p := range prog.pkgs {
		if p.mod != main || !isInternal(p.path) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					vs, ok := s.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						obj, ok := p.info.Defs[name].(*types.Var)
						if !ok || name.Name == "_" || isSyncPool(obj.Type()) {
							continue
						}
						if i < len(vs.Values) && isErrorsNew(p.info, vs.Values[i]) {
							continue
						}
						out = append(out, p.path[len(main.path)+1:]+"."+name.Name)
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func isSyncPool(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Pool"
}

// isErrorsNew reports whether e is a call of errors.New.
func isErrorsNew(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "errors" && fn.Name() == "New"
}
