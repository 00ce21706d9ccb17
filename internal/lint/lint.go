// Package lint is ringcast's custom static-analysis suite: it turns the
// determinism and concurrency contracts that ARCHITECTURE.md states in prose
// into mechanically enforced policy. Four per-package analyzers encode the
// repository's direct invariants: detrand (packages carrying the
// `ringcast:deterministic` marker must derive every random draw from
// per-unit seeded streams and may not read the wall clock), maporder (map
// iteration order must not reach table/CSV/fold output unsorted), lockio
// (no blocking call — network I/O, channel operation, sleep, WaitGroup wait
// — while a sync mutex is held; the exact bug class the async transport
// rewrite fixed), and hotalloc (functions carrying the `ringcast:hotpath`
// marker must stay free of heap escapes, checked against the compiler's own
// -gcflags=-m escape analysis). Three interprocedural analyzers catch the
// same contracts violated *through a call*, using a module-wide call graph
// and propagated per-function facts (callgraph.go, facts.go, module.go):
// lockorder (cross-package lock-acquisition cycles — potential deadlock —
// and transitive blocking under a lock), goroleak (goroutines that can park
// forever on a channel with no reachable cancellation path), and detflow
// (deterministic packages reaching global rand or the wall clock through
// unmarked helper packages). The framework
// mirrors golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) but
// is built on the standard library alone: packages load via
// `go list -export` and typecheck against compiler export data, so the
// suite needs no dependencies outside the Go toolchain. Sites where a rule
// is deliberately broken carry `//lint:<analyzer> <why>` waivers; a waiver
// without a justification, or one that suppresses nothing, is itself a
// diagnostic, and the full waiver ledger is pinned to the ARCHITECTURE.md
// "Waiver debt" table by the docs gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass. The shape deliberately
// mirrors golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the upstream framework wholesale if x/tools ever becomes a dependency.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:<name>` waiver comments.
	Name string

	// Doc is a one-paragraph description of the contract the analyzer
	// enforces, shown by `ringcast-lint -help`.
	Doc string

	// Run executes the analyzer against one package and reports findings
	// through pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, already resolved to a file position. Findings
// suppressed by a justified `//lint:` waiver never surface as Diagnostics.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding as "file:line:col: [analyzer] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one typechecked package through one analyzer, again in the
// image of analysis.Pass. Analyzers report through Reportf; the driver
// applies waiver filtering afterwards, so analyzers stay oblivious to the
// waiver mechanism.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Deterministic reports whether any file of the package carries the
	// `ringcast:deterministic` marker comment; the marker is
	// package-scoped, so one marked file covers every file (marker
	// inheritance).
	Deterministic bool

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// markerRe matches the package-scope determinism marker. The marker is a
// directive-style comment (`//ringcast:deterministic`, a space after the
// slashes is tolerated) so it stays out of rendered godoc, exactly like
// //go:build. Prose that merely mentions the marker name mid-sentence does
// not match.
var markerRe = regexp.MustCompile(`^//[ \t]?ringcast:deterministic\b`)

// hotpathRe matches the function-scope hot-path marker used by hotalloc.
var hotpathRe = regexp.MustCompile(`^//[ \t]?ringcast:hotpath\b`)

// waiverRe matches suppression comments: `//lint:<analyzer> <justification>`.
// The justification is mandatory; an empty one is reported by the driver.
var waiverRe = regexp.MustCompile(`^//[ \t]?lint:([a-z]+)\b[ \t]*(.*)$`)

// A waiver is one parsed `//lint:` comment. It suppresses diagnostics from
// the named analyzer on its own line and on the following line (so it can
// trail the offending statement or sit on its own line above it).
type waiver struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// collectWaivers parses every comment in the package into per-file,
// per-line waiver tables.
func collectWaivers(fset *token.FileSet, files []*ast.File) []*waiver {
	var ws []*waiver
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := waiverRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				ws = append(ws, &waiver{
					analyzer: m[1],
					reason:   strings.TrimSpace(m[2]),
					pos:      fset.Position(c.Pos()),
				})
			}
		}
	}
	return ws
}

// hasDeterministicMarker reports whether any comment in any file is the
// package-scope `ringcast:deterministic` directive.
func hasDeterministicMarker(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if markerRe.MatchString(c.Text) {
					return true
				}
			}
		}
	}
	return false
}

// HotpathFuncs returns the declared functions in files whose doc comment
// carries the `ringcast:hotpath` directive, as printable names with body
// position ranges (used by the hotalloc escape-analysis check).
func HotpathFuncs(fset *token.FileSet, files []*ast.File) []HotpathFunc {
	var out []HotpathFunc
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			marked := false
			for _, c := range fd.Doc.List {
				if hotpathRe.MatchString(c.Text) {
					marked = true
					break
				}
			}
			if !marked {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
			}
			out = append(out, HotpathFunc{
				Name:  name,
				File:  fset.Position(fd.Pos()).Filename,
				Start: fset.Position(fd.Body.Lbrace).Line,
				End:   fset.Position(fd.Body.Rbrace).Line,
			})
		}
	}
	return out
}

// A HotpathFunc is one function marked `ringcast:hotpath`: hotalloc fails the
// build if compiler escape analysis reports a heap escape between Start and
// End of File.
type HotpathFunc struct {
	Name       string
	File       string
	Start, End int
}

// RunAnalyzers executes the AST analyzers over the loaded packages, applies
// waiver filtering, and appends meta-diagnostics for malformed (empty-reason)
// and unused waivers. Diagnostics come back sorted by position.
//
// extra carries position-resolved diagnostics produced outside the AST
// passes (the hotalloc escape check); they pass through the same waiver
// filter so `//lint:hotalloc <why>` works like every other waiver. extraRan
// names those non-AST checks that actually executed, so their waivers are
// audited for staleness only when the check ran (the AST-only test harness
// must not flag hotalloc waivers as unused).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, extra []Diagnostic, extraRan ...string) ([]Diagnostic, error) {
	var raw []Diagnostic
	var waivers []*waiver
	for _, pkg := range pkgs {
		waivers = append(waivers, collectWaivers(pkg.Fset, pkg.Syntax)...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:      a,
				Fset:          pkg.Fset,
				Files:         pkg.Syntax,
				Pkg:           pkg.Types,
				TypesInfo:     pkg.TypesInfo,
				Deterministic: pkg.Deterministic,
				diags:         &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
			}
		}
	}
	raw = append(raw, extra...)

	ran := map[string]bool{}
	for _, name := range extraRan {
		ran[name] = true
	}
	for _, a := range analyzers {
		ran[a.Name] = true
	}

	var out []Diagnostic
	for _, d := range raw {
		if w := matchWaiver(waivers, d); w != nil {
			w.used = true
			continue
		}
		out = append(out, d)
	}
	for _, w := range waivers {
		if !ran[w.analyzer] {
			continue
		}
		switch {
		case w.reason == "":
			out = append(out, Diagnostic{
				Analyzer: "waiver",
				Pos:      w.pos,
				Message:  fmt.Sprintf("lint:%s waiver has no justification; state why the rule is deliberately broken here", w.analyzer),
			})
		case !w.used:
			out = append(out, Diagnostic{
				Analyzer: "waiver",
				Pos:      w.pos,
				Message:  fmt.Sprintf("lint:%s waiver suppresses nothing; remove it", w.analyzer),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}

// matchWaiver finds a waiver for d: same analyzer, same file, on d's line or
// the line directly above.
func matchWaiver(waivers []*waiver, d Diagnostic) *waiver {
	for _, w := range waivers {
		if w.analyzer != d.Analyzer {
			continue
		}
		if w.pos.Filename != d.Pos.Filename {
			continue
		}
		if w.pos.Line == d.Pos.Line || w.pos.Line == d.Pos.Line-1 {
			return w
		}
	}
	return nil
}
