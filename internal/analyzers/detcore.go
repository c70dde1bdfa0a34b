package analyzers

import (
	"go/ast"
	"strings"
)

// Detcore forbids ambient nondeterminism — wall clock, environment reads,
// global or crypto randomness — everywhere except an explicit, reasoned
// allowlist of wall-clock-facing packages. A single time.Now inside the
// simulation core silently breaks every byte-identity contract in the
// tree (warm==cold, service==solo, interrupt/resume), and nothing else
// would catch it until a golden file flakes.
var Detcore = &Analyzer{
	Name: "detcore",
	Doc: "forbid time.Now/time.Since, os env reads, and global/crypto " +
		"randomness outside the allowlisted wall-clock packages",
	Run: runDetcore,
}

// DetcoreAllowlist names the packages allowed to touch the wall clock and
// process environment, each with the reason the exemption exists. Paths
// are import-path suffixes relative to the module root. Everything else —
// in particular the simulation core (internal/{sim,cache,mem,nic,
// netmodel,testbed,probe,chase,covert,fingerprint,perfsim,stats,search})
// — is deny-by-default; one-off exceptions inside checked packages take
// an inline //packetlint:allow with a reason instead.
var DetcoreAllowlist = map[string]string{
	"internal/runner": "progress ETA and per-trial wall-time reporting; " +
		"simulated time never mixes into results",
	"internal/service": "job lifecycle timestamps, HTTP deadlines, and " +
		"SSE heartbeats for a long-running daemon",
	"cmd/experiments": "wall-clock 'finished in Ns' progress line on stderr",
	"cmd/experimentd": "daemon startup/shutdown logging and listener deadlines",
	"cmd/benchjson":   "benchmark tooling timestamps, outside the simulation",
	"cmd/chaser":      "interactive demo CLI, outside the simulation",
}

// detcoreBanned maps package path -> banned identifier -> explanation.
// math/rand entries cover only the global-source helpers; rand.New /
// rand.NewSource / rand.NewZipf build seeded local generators and are the
// business of the rngflow analyzer instead.
var detcoreBanned = map[string]map[string]string{
	"time": {
		"Now":   "wall clock; simulated time comes from sim.Clock",
		"Since": "wall clock; simulated durations come from sim.Clock deltas",
	},
	"os": {
		"Getenv":    "environment read; configuration must arrive through Options",
		"LookupEnv": "environment read; configuration must arrive through Options",
		"Environ":   "environment read; configuration must arrive through Options",
	},
	"math/rand": {
		"Int": "", "Intn": "", "Int31": "", "Int31n": "", "Int63": "", "Int63n": "",
		"Uint32": "", "Uint64": "", "Float32": "", "Float64": "",
		"ExpFloat64": "", "NormFloat64": "", "Perm": "", "Shuffle": "",
		"Read": "", "Seed": "",
	},
	"math/rand/v2": {
		"Int": "", "IntN": "", "Int32": "", "Int32N": "", "Int64": "", "Int64N": "",
		"Uint": "", "UintN": "", "Uint32": "", "Uint32N": "", "Uint64": "", "Uint64N": "",
		"Float32": "", "Float64": "", "ExpFloat64": "", "NormFloat64": "",
		"Perm": "", "Shuffle": "", "N": "",
	},
	"crypto/rand": {
		"Read": "nondeterministic entropy; draw through the seeded sim.RNG",
		"Int":  "nondeterministic entropy; draw through the seeded sim.RNG",
		"Text": "nondeterministic entropy; draw through the seeded sim.RNG",
	},
}

func runDetcore(pass *Pass) error {
	if reason, ok := allowlisted(pass.Pkg.Path(), DetcoreAllowlist); ok {
		_ = reason // the exemption is the finding's absence; reasons are documentation
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			banned, ok := detcoreBanned[obj.Pkg().Path()]
			if !ok {
				return true
			}
			why, ok := banned[obj.Name()]
			if !ok || obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			if why == "" {
				why = "global math/rand source; draw through the draw-counted sim.RNG"
			}
			pass.Reportf(id.Pos(), "%s.%s in a deterministic package: %s",
				obj.Pkg().Path(), obj.Name(), why)
			return true
		})
	}
	return nil
}

// allowlisted reports whether pkgPath ends with one of the allowlist's
// suffix paths (matching on path-segment boundaries, so e.g. the entry
// internal/runner matches repro/internal/runner but not a hypothetical
// internal/runnerx).
func allowlisted(pkgPath string, list map[string]string) (string, bool) {
	for suffix, reason := range list {
		if pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix) {
			return reason, true
		}
	}
	return "", false
}
