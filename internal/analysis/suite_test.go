package analysis_test

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"flashwear/internal/analysis"
	"flashwear/internal/analysis/checktest"
	"flashwear/internal/analysis/flashvet"
	"flashwear/internal/analysis/passes/floataccum"
	"flashwear/internal/analysis/passes/globalrand"
	"flashwear/internal/analysis/passes/locksafe"
	"flashwear/internal/analysis/passes/maporder"
	"flashwear/internal/analysis/passes/opserrcheck"
	"flashwear/internal/analysis/passes/wallclock"
)

// One fixture per analyzer: each seeds violations, sanctioned idioms, and
// a //flashvet:ignore waiver, proving the analyzer both fires and can be
// silenced (ISSUE 5 acceptance).

func TestWallclockFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/wallclock", wallclock.Analyzer)
}

// TestWallclockOpsDomainFixture pins the //flashvet:ops-domain opt-out: a
// declared ops-plane package uses the host clock with no findings.
func TestWallclockOpsDomainFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/wallclockops", wallclock.Analyzer)
}

// TestWallclockOpsDomainBadFixture pins the failure mode: a declaration
// without a reason is itself a finding and grants no exemption.
func TestWallclockOpsDomainBadFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/wallclockopsbad", wallclock.Analyzer)
}

func TestGlobalrandFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/globalrand", globalrand.Analyzer)
}

// TestGlobalrandOpsDomainFixture pins the //flashvet:ops-domain opt-out
// for globalrand: a declared ops-plane package (retry-backoff jitter)
// uses the global source and literal seeds with no findings.
func TestGlobalrandOpsDomainFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/globalrandops", globalrand.Analyzer)
}

// TestGlobalrandOpsDomainBadFixture pins the failure mode shared with
// wallclock: a malformed declaration grants no exemption (the finding
// itself is wallclock's to report, once for the whole suite).
func TestGlobalrandOpsDomainBadFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/globalrandopsbad", globalrand.Analyzer)
}

func TestMaporderFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/maporder", maporder.Analyzer)
}

func TestFloataccumFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/floataccum/fleet", floataccum.Analyzer)
}

func TestOpserrcheckFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/opserrcheck", opserrcheck.Analyzer)
}

// TestLocksafeFixture covers locksafe's hazard (blocking under a held
// mutex) and the shapes that must stay silent: release-before-block,
// select with default, goroutines launched under a lock, Cond.Wait,
// mutexed file fsync, and the lock copies stock go vet reports.
func TestLocksafeFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/locksafe", locksafe.Analyzer)
}

// TestIgnoreFixture pins the directive grammar itself: both waiver forms,
// the mandatory reason, unknown-analyzer rejection, and the stale-waiver
// check, under the full suite.
func TestIgnoreFixture(t *testing.T) {
	checktest.Run(t, "./testdata/src/ignoredir", flashvet.All()...)
}

// TestRealTreeClean is `make lint` as a test: the full suite over the full
// module must come back empty. A finding here means a determinism or
// safety invariant regressed (or a waiver went stale) — fix it or justify
// it with //flashvet:ignore, never by loosening the analyzer.
func TestRealTreeClean(t *testing.T) {
	fset, pkgs := loadRealTree(t)
	findings, err := analysis.Run(fset, pkgs, flashvet.All(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestOneAnalyzerRunIsClean pins `flashvet -<analyzer> ./...`: a run of
// one analyzer over the clean tree reports nothing. Waivers naming the
// analyzers it skips are valid directives, not "unknown analyzer"
// findings, and are not unused ones either.
func TestOneAnalyzerRunIsClean(t *testing.T) {
	fset, pkgs := loadRealTree(t)
	suite := flashvet.All()
	for _, a := range suite {
		findings, err := analysis.Run(fset, pkgs, suite, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("-%s alone: %s", a.Name, f)
		}
	}
}

func loadRealTree(t *testing.T) (*token.FileSet, []*analysis.Package) {
	t.Helper()
	pkgs, fset, err := analysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from module root")
	}
	return fset, pkgs
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
