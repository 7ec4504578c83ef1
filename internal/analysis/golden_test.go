package analysis

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes one Loader for the whole test binary so the
// standard library is only type-checked once across golden tests and the
// module self-check.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

// expectation is one parsed `// want` comment: a regexp that must match
// a diagnostic message on the anchored line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("^// want (\\+(\\d+) )?([`\"].*)$")

// collectWants scans the fixture package's comments for expectations.
// `// want \x60regex\x60` anchors to the comment's own line; `// want +N
// \x60regex\x60` anchors N lines below (for diagnostics reported on full-line
// comments, like malformed directives).
func collectWants(t *testing.T, pkg *Package, l *Loader) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				offset := 0
				if m[2] != "" {
					offset, _ = strconv.Atoi(m[2])
				}
				raw := strings.TrimSpace(m[3])
				var pat string
				if strings.HasPrefix(raw, "`") {
					pat = strings.Trim(raw, "`")
				} else {
					var err error
					pat, err = strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", l.Fset.Position(c.Pos()), raw, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", l.Fset.Position(c.Pos()), pat, err)
				}
				pos := l.Fset.Position(c.Pos())
				wants = append(wants, &expectation{
					file:    pos.Filename,
					line:    pos.Line + offset,
					pattern: re,
				})
			}
		}
	}
	return wants
}

// runGolden loads one fixture package, runs the given analyzers, and
// checks the diagnostics against the fixture's want comments exactly:
// every expectation must be matched and every diagnostic expected. A
// disabled or broken analyzer therefore fails the test (its expected
// diagnostics go unmatched).
func runGolden(t *testing.T, fixture string, analyzers []*Analyzer) {
	t.Helper()
	l := sharedLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./internal/analysis/testdata/src/" + fixture})
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	diags := Run(l.Fset, pkgs, analyzers)
	var wants []*expectation
	for _, p := range pkgs {
		wants = append(wants, collectWants(t, p, l)...)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", fixture)
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.File && w.line == d.Line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.file, w.line, w.pattern)
		}
	}
}

func TestGoldenNoPanic(t *testing.T) { runGolden(t, "nopanic/grid", []*Analyzer{AnalyzerNoPanic}) }
func TestGoldenErrWrap(t *testing.T) { runGolden(t, "errwrap/core", []*Analyzer{AnalyzerErrWrap}) }
func TestGoldenTracePair(t *testing.T) {
	runGolden(t, "tracepair/tracecheck", []*Analyzer{AnalyzerTracePair})
}
func TestGoldenFloatEq(t *testing.T) { runGolden(t, "floateq/quant", []*Analyzer{AnalyzerFloatEq}) }
func TestGoldenTaintSize(t *testing.T) {
	runGolden(t, "taintsize/codec", []*Analyzer{AnalyzerTaintSize})
}
func TestGoldenTaintSizeZeroHop(t *testing.T) {
	runGolden(t, "taintsize/bitio", []*Analyzer{AnalyzerTaintSize})
}
func TestGoldenCtxPoll(t *testing.T) {
	runGolden(t, "ctxpoll/stream", []*Analyzer{AnalyzerCtxPoll})
}
func TestGoldenGoroLeak(t *testing.T) {
	runGolden(t, "goroleak/service", []*Analyzer{AnalyzerGoroLeak})
}

// Regression fixtures: minimized real-world shapes from this module's
// own triage. Each pre-fix hazard must keep firing and each shipped fix
// (or summary-proved safe shape) must stay clean.
func TestRegressStreamDelta(t *testing.T) {
	runGolden(t, "regress/stream", []*Analyzer{AnalyzerCtxPoll})
}
func TestRegressZFPPlanes(t *testing.T) {
	runGolden(t, "regress/zfp", []*Analyzer{AnalyzerTaintSize})
}
func TestRegressServiceRefresh(t *testing.T) {
	runGolden(t, "regress/service", []*Analyzer{AnalyzerGoroLeak})
}

// TestGoldenDirectives checks the engine's own directive validation
// (missing reason, unknown analyzer) with the full suite active.
func TestGoldenDirectives(t *testing.T) { runGolden(t, "directive", Analyzers()) }

// TestEachAnalyzerFires pins the disabled-check property directly: every
// analyzer must produce at least one diagnostic on each of its fixtures,
// so neutering Run for an analyzer (or one of its cases) cannot pass
// unnoticed.
func TestEachAnalyzerFires(t *testing.T) {
	fixtures := map[string][]string{
		"nopanic":   {"nopanic/grid"},
		"errwrap":   {"errwrap/core"},
		"tracepair": {"tracepair/tracecheck"},
		"floateq":   {"floateq/quant"},
		"taintsize": {"taintsize/codec", "taintsize/bitio"},
		"ctxpoll":   {"ctxpoll/stream"},
		"goroleak":  {"goroleak/service"},
	}
	l := sharedLoader(t)
	for _, a := range Analyzers() {
		if len(fixtures[a.Name]) == 0 {
			t.Errorf("analyzer %s has no golden fixture", a.Name)
			continue
		}
		for _, fixture := range fixtures[a.Name] {
			pkgs, err := l.LoadPatterns([]string{"./internal/analysis/testdata/src/" + fixture})
			if err != nil {
				t.Fatalf("load fixture %s: %v", fixture, err)
			}
			found := false
			for _, d := range Run(l.Fset, pkgs, []*Analyzer{a}) {
				if d.Analyzer == a.Name {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("analyzer %s reported nothing on fixture %s: check disabled?", a.Name, fixture)
			}
		}
	}
}

// TestSuppression checks that a well-formed ignore directive removes the
// diagnostic while leaving unannotated sites flagged (the floateq
// fixture has both).
func TestSuppression(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadPatterns([]string{"./internal/analysis/testdata/src/floateq/quant"})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l.Fset, pkgs, []*Analyzer{AnalyzerFloatEq})
	if len(diags) != 2 {
		var lines []string
		for _, d := range diags {
			lines = append(lines, d.String())
		}
		t.Fatalf("want exactly 2 surviving diagnostics (annotated site suppressed), got %d:\n%s",
			len(diags), strings.Join(lines, "\n"))
	}
}
