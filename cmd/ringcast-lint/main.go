// Command ringcast-lint is the multichecker for ringcast's determinism and
// concurrency contracts: it loads the requested packages and runs the
// internal/lint analyzer suite — detrand (no ambient randomness or wall
// clock in ringcast:deterministic packages), maporder (map iteration order
// must not reach output unsorted), lockio (no blocking call while a sync
// mutex is held), hotalloc (ringcast:hotpath functions must stay free of
// compiler-reported heap escapes), and the interprocedural three built on
// the module call graph — lockorder (cross-package lock-order cycles and
// transitive blocking under a mutex), goroleak (spawned goroutines need a
// cancellation path), and detflow (determinism taint through unmarked
// helper packages). Findings print as file:line:col lines
// (-json for structured output, -github for CI annotations) and a non-zero
// exit fails CI; deliberate exceptions carry justified
// `//lint:<analyzer> <why>` waivers in the source itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ringcast/internal/lint"
)

// analyzers is the per-package AST half of the suite.
var analyzers = []*lint.Analyzer{lint.Detrand, lint.Maporder, lint.Lockio}

// moduleAnalyzers is the interprocedural half, run over the whole-module
// call graph; hotalloc runs as a separate compiler-driven pass.
var moduleAnalyzers = []*lint.ModuleAnalyzer{lint.Lockorder, lint.Goroleak, lint.Detflow}

func main() {
	disable := flag.String("disable", "", "comma-separated analyzers to skip (detrand, maporder, lockio, hotalloc, lockorder, goroleak, detflow)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text lines")
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations so findings land on the PR diff")
	flag.Usage = usage
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	disabled := map[string]bool{}
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			disabled[name] = true
		}
	}

	dir, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fatal(err)
	}

	var enabled []*lint.Analyzer
	for _, a := range analyzers {
		if !disabled[a.Name] {
			enabled = append(enabled, a)
		}
	}
	var extra []lint.Diagnostic
	var extraRan []string

	var enabledModule []*lint.ModuleAnalyzer
	for _, a := range moduleAnalyzers {
		if !disabled[a.Name] {
			enabledModule = append(enabledModule, a)
		}
	}
	if len(enabledModule) > 0 {
		m := lint.NewModule(pkgs)
		moduleDiags, ran, err := lint.RunModuleAnalyzers(m, enabledModule)
		if err != nil {
			fatal(err)
		}
		extra = append(extra, moduleDiags...)
		extraRan = append(extraRan, ran...)
	}
	if !disabled[lint.HotallocName] {
		hot, err := lint.Hotalloc(dir, pkgs)
		if err != nil {
			fatal(err)
		}
		extra = append(extra, hot...)
		extraRan = append(extraRan, lint.HotallocName)
	}

	diags, err := lint.RunAnalyzers(pkgs, enabled, extra, extraRan...)
	if err != nil {
		fatal(err)
	}
	emit(dir, diags, *jsonOut, *github)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ringcast-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonFinding is the -json wire shape of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// emit prints the findings in the requested formats, with module-root
// relative paths.
func emit(dir string, diags []lint.Diagnostic, asJSON, github bool) {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		findings = append(findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if github {
		for _, f := range findings {
			// Workflow-command annotation: file/line place the finding on
			// the PR diff. The message must stay one line.
			msg := strings.ReplaceAll(f.Message, "\n", " ")
			fmt.Printf("::error file=%s,line=%d,col=%d,title=ringcast-lint %s::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, msg)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ringcast-lint:", err)
	os.Exit(2)
}

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `ringcast-lint enforces ringcast's determinism and concurrency contracts.

Usage:

  ringcast-lint [flags] [packages]

With no package patterns it checks ./... . Examples:

  ringcast-lint ./...
  ringcast-lint -json -disable hotalloc ./internal/...

Per-package analyzers:

`)
	for _, a := range analyzers {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", lint.HotallocName, lint.HotallocDoc)
	fmt.Fprintf(flag.CommandLine.Output(), `
Interprocedural analyzers (whole-module call graph with per-function facts):

`)
	for _, a := range moduleAnalyzers {
		fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(flag.CommandLine.Output(), `
Markers and waivers (see ARCHITECTURE.md "Enforced contracts"):

  //ringcast:deterministic   package-scope marker: detrand and detflow apply
                             (one marked file covers the whole package)
  //ringcast:hotpath         function marker: hotalloc forbids heap escapes
  //lint:<analyzer> <why>    justified waiver on the finding's line or the
                             line above; an unjustified or unused waiver is
                             itself a finding

Flags:

`)
	flag.PrintDefaults()
}
