package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Version identifies the static-analysis contract implemented by this
// package. Bump it whenever an analyzer's rules change materially; it is
// recorded in conformance reproducer artifacts.
const Version = "clizlint/2"

// Severity classifies a diagnostic.
type Severity string

const (
	SeverityError   Severity = "error"
	SeverityWarning Severity = "warning"
)

// Diagnostic is one finding from an analyzer.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Column   int            `json:"column"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
	Severity Severity       `json:"severity"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// Analyzer is one static check run over a set of loaded packages. Checks
// that need a whole-program view (callgraph reachability) receive every
// requested package in a single call.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Pass carries the loaded packages and accumulates diagnostics for one
// analyzer run.
type Pass struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Prog is the shared interprocedural state (callgraph, function
	// summaries, decode reachability), built once per Run and reused by
	// every analyzer. Use the Program() accessor, which builds it lazily
	// for hand-constructed passes.
	Prog     *Program
	analyzer string
	diags    []Diagnostic
}

// Reportf records a diagnostic at pos with SeverityError.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, SeverityError, format, args...)
}

func (p *Pass) report(pos token.Pos, sev Severity, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
		Severity: sev,
	})
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerNoPanic,
		AnalyzerErrWrap,
		AnalyzerTracePair,
		AnalyzerFloatEq,
		AnalyzerTaintSize,
		AnalyzerCtxPoll,
		AnalyzerGoroLeak,
	}
}

// AnalyzerNames returns the names of every analyzer in the suite.
func AnalyzerNames() []string {
	as := Analyzers()
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the given analyzers over pkgs and returns the surviving
// diagnostics sorted by position. Diagnostics matched by a well-formed
// //clizlint:ignore directive are dropped; malformed directives (missing
// analyzer name or reason) are reported by the engine itself under the
// pseudo-analyzer name "directive".
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	prog := buildProgram(fset, pkgs)
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Pkgs: pkgs, Prog: prog, analyzer: a.Name}
		a.Run(pass)
		for _, d := range pass.diags {
			if suppressed(pkgs, d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, p := range pkgs {
		for _, ig := range p.Ignores {
			if ig.Analyzer == "" || ig.Reason == "" {
				out = append(out, Diagnostic{
					Pos:      ig.Pos,
					File:     ig.Pos.Filename,
					Line:     ig.Pos.Line,
					Column:   ig.Pos.Column,
					Analyzer: "directive",
					Message:  "malformed //clizlint:ignore directive: want //clizlint:ignore <analyzer> <reason>",
					Severity: SeverityError,
				})
			} else if ByName(ig.Analyzer) == nil && ig.Analyzer != "all" {
				out = append(out, Diagnostic{
					Pos:      ig.Pos,
					File:     ig.Pos.Filename,
					Line:     ig.Pos.Line,
					Column:   ig.Pos.Column,
					Analyzer: "directive",
					Message:  fmt.Sprintf("//clizlint:ignore names unknown analyzer %q", ig.Analyzer),
					Severity: SeverityError,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

func suppressed(pkgs []*Package, d Diagnostic) bool {
	for _, p := range pkgs {
		for _, ig := range p.Ignores {
			if ig.suppresses(d.Analyzer, d.Pos) {
				return true
			}
		}
	}
	return false
}
