// Package analysis is the simulator's invariant-checking lint suite:
// golang.org/x/tools/go/analysis analyzers enforcing the properties every
// figure regeneration depends on. Two runs of the same configuration must be
// bit-for-bit identical, and the power/stat accounting must never silently
// degrade, so the suite checks:
//
//   - determinism: no wall-clock reads, no global math/rand, no map-order
//     iteration, no unjoined goroutines in simulation code
//   - statsafety: ratio computations guarded against zero denominators, and
//     counter fields wide enough not to wrap mid-run
//   - specrepair: predictor types that speculatively update history must
//     also implement the matching repair methods (Unwind/Redirect)
//   - dimcheck: typed units-of-measure dataflow — //bp:unit annotations on
//     fields, constants, and function signatures give quantities dimensions
//     (J, W, s, cycle, inst and derived ratios), and expression-level
//     inference rejects adds/compares/assignments that mix dimensions,
//     propagating annotations across packages via analysis facts
//   - unitdiscipline: the name-heuristic fallback for unannotated code —
//     assignments must not mix energy-named and power-named quantities
//     without converting through a time term (dimcheck owns anything
//     annotated)
//   - unitsource: power.Unit construction stays behind the frontend layer —
//     raw NewArrayUnit/NewFixedUnit calls are allowed only in the frontend
//     and power packages, so no hand-wired unit escapes the registry
//   - hotpath: functions marked //bp:hotpath (Sim.step and its callees,
//     Meter.EndCycle) must not range over maps, defer, or call methods
//     through interfaces — the per-cycle kernel stays allocation-free and
//     calls its predictor through method values bound once
//   - hotreach: the transitive closure of //bp:hotpath — a hot function may
//     only statically call hot-marked functions (enforced across packages
//     via analysis facts), and hot bodies may not heap-allocate (make/new/
//     append, closures, string concatenation, fmt calls)
//   - allowhygiene: every //bplint:allow suppression must carry the
//     mandatory "-- reason" documenting why the invariant holds anyway
//
// All of them are wired into cmd/bplint, which runs them (plus selected go
// vet passes) over the whole module; verify.sh makes that a CI gate.
//
// A diagnostic that is intentional can be suppressed with a comment on the
// offending line or the line above:
//
//	//bplint:allow <check> -- reason
//
// where <check> is the key named in the diagnostic (wallclock, maprange,
// goroutine, divzero, counter, specrepair, units, dim, unitsource, hotpath,
// hotreach). The reason is mandatory: a bare allow is itself a diagnostic
// (allowhygiene), and the full suppression inventory is committed as
// lint_allowances.txt so growth is visible in review.
package analysis

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// isTestFile reports whether pos is in a _test.go file. The determinism and
// statsafety contracts bind simulation code; tests may measure wall time or
// range over maps when the result is order-insensitive.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// suppKey addresses one suppression: a file, the line the comment sits on,
// and the check key it allows.
type suppKey struct {
	file string
	line int
	key  string
}

// bareAllow records a //bplint:allow comment missing its mandatory reason.
type bareAllow struct {
	pos token.Pos
	key string
}

// suppressions is the per-pass index of every //bplint:allow comment,
// built once by indexSuppressions so each lookup is a map probe instead of
// a rescan of the file's whole comment list per diagnostic.
type suppressions struct {
	fset   *token.FileSet
	byLine map[suppKey]bool
	bare   []bareAllow
}

// allowMarker starts a suppression comment. The marker must begin the
// comment text (after the // and optional space): prose *mentioning* the
// marker, like this sentence or a doc-comment example, never suppresses.
const allowMarker = "bplint:allow"

// parseAllow splits a comment into its allow key and reason. ok is false
// when the comment is not a suppression comment at all; reason is empty when
// the mandatory "-- reason" part is missing.
func parseAllow(text string) (key, reason string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, allowMarker)
	if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", "", false
	}
	rest, reason, _ = strings.Cut(rest, "--")
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", false
	}
	return fields[0], strings.TrimSpace(reason), true
}

// indexSuppressions scans every comment of the pass exactly once and
// returns the line→suppression index. Analyzers build it at the top of
// their Run and query it per diagnostic.
func indexSuppressions(pass *analysis.Pass) *suppressions {
	s := &suppressions{fset: pass.Fset, byLine: map[suppKey]bool{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				key, reason, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				s.byLine[suppKey{p.Filename, p.Line, key}] = true
				if reason == "" {
					s.bare = append(s.bare, bareAllow{c.Pos(), key})
				}
			}
		}
	}
	return s
}

// allowed reports whether the line holding pos (or the line above it)
// carries a "//bplint:allow <key>" suppression comment.
func (s *suppressions) allowed(pos token.Pos, key string) bool {
	p := s.fset.Position(pos)
	return s.byLine[suppKey{p.Filename, p.Line, key}] ||
		s.byLine[suppKey{p.Filename, p.Line - 1, key}]
}

// AllowHygiene enforces the suppression policy's documented-but-previously-
// unchecked rule: every //bplint:allow must carry "-- reason". The reason is
// what makes a suppression reviewable — it states why the invariant holds
// even though the analyzer cannot see it.
var AllowHygiene = &analysis.Analyzer{
	Name: "allowhygiene",
	Doc:  "require the mandatory '-- reason' on every //bplint:allow suppression",
	Run:  runAllowHygiene,
}

func runAllowHygiene(pass *analysis.Pass) (interface{}, error) {
	sup := indexSuppressions(pass)
	for _, b := range sup.bare {
		pass.Reportf(b.pos, "allowhygiene: //bplint:allow %s without the mandatory '-- reason'; document why the invariant holds anyway (or delete the suppression)", b.key)
	}
	return nil, nil
}

// enclosingFile returns the *ast.File of pass containing pos.
func enclosingFile(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
