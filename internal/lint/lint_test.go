package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"ringcast/internal/lint"
	"ringcast/internal/lint/linttest"
)

func TestDetrandFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/detrand", lint.Detrand)
}

func TestDetrandUnmarkedPackageIsExempt(t *testing.T) {
	linttest.RunExpectClean(t, "testdata/src/nomarker", lint.Detrand)
}

func TestMaporderFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/maporder", lint.Maporder)
}

func TestLockioFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/lockio", lint.Lockio)
}

// TestWaiverAudit asserts the three waiver behaviours end to end: a
// justified waiver suppresses its finding silently, an unjustified waiver is
// reported even though it suppresses, and a waiver over a clean line is
// flagged as stale. Asserted without want comments: a trailing want comment
// would merge into the waiver comment's own text.
func TestWaiverAudit(t *testing.T) {
	diags := linttest.Diagnostics(t, "testdata/src/waivers", lint.Detrand)
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 findings (unjustified + stale waiver), got %d:\n%s",
			len(diags), linttest.Describe(diags))
	}
	for _, d := range diags {
		if d.Analyzer != "waiver" {
			t.Errorf("finding escaped waiver filtering: %s", d)
		}
	}
	if !strings.Contains(diags[0].Message, "no justification") {
		t.Errorf("first finding should flag the unjustified waiver, got: %s", diags[0])
	}
	if !strings.Contains(diags[1].Message, "suppresses nothing") {
		t.Errorf("second finding should flag the stale waiver, got: %s", diags[1])
	}
}

// TestHotallocFixture drives the escape-analysis gate against the standalone
// escapefixture module: the marked leaking function fires, the unmarked
// leaking function and the marked clean function stay silent, and the
// justified waiver suppresses its escape.
func TestHotallocFixture(t *testing.T) {
	dir, err := filepath.Abs("testdata/escape")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(dir, ".")
	if err != nil {
		t.Fatalf("load escape fixture: %v", err)
	}
	raw, err := lint.Hotalloc(dir, pkgs)
	if err != nil {
		t.Fatalf("hotalloc: %v", err)
	}
	// Pre-filter: Hot and HotWaived escape, Cool and HotClean never appear.
	if len(raw) != 2 {
		t.Fatalf("want 2 raw escape findings (Hot, HotWaived), got %d:\n%s",
			len(raw), linttest.Describe(raw))
	}
	for _, d := range raw {
		if strings.Contains(d.Message, "Cool") || strings.Contains(d.Message, "HotClean") {
			t.Errorf("escape attributed to the wrong function: %s", d)
		}
	}
	// Post-filter: the waiver on HotWaived's declaration line suppresses it.
	diags, err := lint.RunAnalyzers(pkgs, nil, raw, lint.HotallocName)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 filtered finding (Hot), got %d:\n%s",
			len(diags), linttest.Describe(diags))
	}
	if !strings.Contains(diags[0].Message, "Hot") || !strings.Contains(diags[0].Message, "heap escape") {
		t.Errorf("surviving finding should be Hot's heap escape, got: %s", diags[0])
	}
}

func TestLockorderFixture(t *testing.T) {
	linttest.RunModule(t, "testdata/src/lockorder", lint.Lockorder)
}

func TestGoroleakFixture(t *testing.T) {
	linttest.RunModule(t, "testdata/src/goroleak", lint.Goroleak)
}

func TestDetflowFixture(t *testing.T) {
	linttest.RunModule(t, "testdata/src/detflow", lint.Detflow)
}

// TestRepoIsLintClean runs the full suite over the module, mirroring the CI
// `ringcast-lint ./...` step inside `go test`: the tree must stay free of
// unwaived findings.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.Load(root, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	deterministic, hot := 0, 0
	for _, pkg := range pkgs {
		if pkg.Deterministic {
			deterministic++
		}
		hot += len(lint.HotpathFuncs(pkg.Fset, pkg.Syntax))
	}
	if deterministic < 10 {
		t.Errorf("only %d packages carry ringcast:deterministic; the ten contract packages (sim, dissem, eventsim, experiment, scenario, checkpoint, core, stats, metrics, churn) must stay marked", deterministic)
	}
	if hot < 5 {
		t.Errorf("only %d functions carry ringcast:hotpath; the escape gate is not guarding the hot path", hot)
	}
	m := lint.NewModule(pkgs)
	extra, extraRan, err := lint.RunModuleAnalyzers(m,
		[]*lint.ModuleAnalyzer{lint.Lockorder, lint.Goroleak, lint.Detflow})
	if err != nil {
		t.Fatalf("module analyzers: %v", err)
	}
	hotDiags, err := lint.Hotalloc(root, pkgs)
	if err != nil {
		t.Fatalf("hotalloc: %v", err)
	}
	extra = append(extra, hotDiags...)
	extraRan = append(extraRan, lint.HotallocName)
	diags, err := lint.RunAnalyzers(pkgs,
		[]*lint.Analyzer{lint.Detrand, lint.Maporder, lint.Lockio},
		extra, extraRan...)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
