package lint

import (
	"bytes"
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Hotalloc is the escape-analysis gate: functions carrying the
// `ringcast:hotpath` marker must not allocate on the heap. Unlike the three
// AST analyzers it is not a syntactic pass — it asks the compiler itself, by
// running `go build -gcflags=<module>/...=-m` and parsing the escape
// diagnostics ("escapes to heap", "moved to heap"). Any escape whose
// position falls inside a marked function's body fails the check, so a
// refactor that silently makes a per-unit hot-path function start allocating
// (the regression class the flattened-scratch rewrites eliminated) breaks CI
// instead of shipping as a 10x allocation regression. Waive a deliberate
// allocation with `//lint:hotalloc <why>` on the escaping line.
const HotallocName = "hotalloc"

// HotallocDoc describes the check for -help output alongside the AST
// analyzers' Doc strings.
const HotallocDoc = "functions marked ringcast:hotpath must stay free of heap escapes per compiler -gcflags=-m escape analysis"

// escapeLineRe matches one compiler escape diagnostic:
// "file.go:line:col: x escapes to heap" / "moved to heap: x".
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// Hotalloc runs compiler escape analysis over the module rooted at dir and
// returns one Diagnostic per heap escape inside a `ringcast:hotpath`-marked
// function of pkgs. The returned diagnostics flow through RunAnalyzers'
// shared waiver filter, so `//lint:hotalloc <why>` suppresses them like any
// other finding.
func Hotalloc(dir string, pkgs []*Package) ([]Diagnostic, error) {
	var marked []HotpathFunc
	for _, pkg := range pkgs {
		marked = append(marked, HotpathFuncs(pkg.Fset, pkg.Syntax)...)
	}
	if len(marked) == 0 {
		return nil, nil
	}

	out, err := escapeOutput(dir)
	if err != nil {
		return nil, err
	}
	return matchEscapes(dir, marked, out), nil
}

// escapeOutput runs compiler escape analysis over the module rooted at dir
// and returns the raw -m diagnostics.
func escapeOutput(dir string) (string, error) {
	modPath, err := modulePath(dir)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-gcflags="+modPath+"/...=-m", "./...")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.Bytes())
	}
	return out.String(), nil
}

// matchEscapes pairs compiler escape diagnostics with marked function
// ranges. buildOutput is the raw `go build -gcflags=-m` output; file paths
// in it are relative to dir.
func matchEscapes(dir string, marked []HotpathFunc, buildOutput string) []Diagnostic {
	byFile := map[string][]HotpathFunc{}
	for _, fn := range marked {
		byFile[fn.File] = append(byFile[fn.File], fn)
	}
	var diags []Diagnostic
	for _, line := range strings.Split(buildOutput, "\n") {
		m := escapeLineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(dir, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		for _, fn := range byFile[file] {
			if lineNo >= fn.Start && lineNo <= fn.End {
				diags = append(diags, Diagnostic{
					Analyzer: HotallocName,
					Pos:      token.Position{Filename: file, Line: lineNo, Column: col},
					Message: fmt.Sprintf("heap escape in ringcast:hotpath function %s: %s — hot-path functions must not allocate",
						fn.Name, m[4]),
				})
				break
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags
}
