package analysis

import (
	"fmt"
	"go/ast"
	"regexp"
)

// AnalyzerTaintSize tracks bitstream-derived integers into allocation
// sizes and loop bounds. A hostile blob can declare an arbitrarily large
// count in a few bytes, so every such count must be bounds-checked
// (against a named cap like maxSections/maxDecodeVolume, a payload
// length, or a caller-supplied budget) before memory or work is
// committed.
//
// Findings come in two kinds:
//
//   - Zero hop: a read feeds a make() inside one function. These are
//     reported only in the decode-contract packages, whose exported entry
//     points take hostile input.
//   - Cross call: the read, the value plumbing and the sink live in
//     different functions — a length decoded in a helper, returned to a
//     caller, and passed two hops down into a make() or a loop bound with
//     no bounds check anywhere on the path. These are reported module-wide.
//
// Sanitization is positional: a relational comparison involving the
// value, or passing it to a call whose name says check/valid/budget/cap/
// bound, kills the taint from that point on. For loop-bound sinks the
// cutoff is the loop statement itself, so a loop's own `i < n` condition
// does not sanitize its bound. Growth via append inside a loop is
// work-proportional to the input and is deliberately exempt.
var AnalyzerTaintSize = &Analyzer{
	Name: "taintsize",
	Doc:  "bitstream-derived sizes must be bounds-checked before they size a make() or bound a loop",
	Run:  runTaintSize,
}

// taintSourcePattern matches the callee names that yield
// attacker-controlled integers: varint readers, bit readers, and
// binary.* fixed-width loads.
var taintSourcePattern = regexp.MustCompile(`^(readUvarint|ReadUvarint|Uvarint|Varint|uvarint|varint|ReadBits|ReadBit|ReadByte|Uint16|Uint32|Uint64)$`)

// sanitizerCallPattern matches helper names whose invocation counts as a
// bounds check for any tainted argument (e.g. checkDecodeBudget).
var sanitizerCallPattern = regexp.MustCompile(`(?i)(check|valid|budget|bound|cap)`)

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func runTaintSize(pass *Pass) {
	prog := pass.Program()
	for _, f := range prog.funcs {
		node := prog.graph.nodes[f]
		fl := newFuncFlow(node.pkg, node.decl, prog)
		for _, s := range fl.sinks {
			tv, name := fl.taintOfExpr(s.expr, s.cutoff)
			if !tv.direct {
				continue
			}
			// An unnamed tainted value (an inline call chain feeding the
			// sink directly) has no variable to point at; describe it by
			// its origin alone instead of repeating the origin twice.
			desc := fmt.Sprintf("%s, a bitstream-derived value from %s,", name, tv.srcDesc)
			short := fmt.Sprintf("bitstream-derived value %s (from %s)", name, tv.srcDesc)
			if name == "" || name == tv.srcDesc {
				desc = fmt.Sprintf("the bitstream-derived result of %s,", tv.srcDesc)
				short = fmt.Sprintf("the bitstream-derived result of %s", tv.srcDesc)
			}
			switch s.kind {
			case sinkMake:
				if !tv.viaCall {
					if decodeContractPackages[node.pkg.Name] {
						pass.Reportf(s.pos,
							"make() sized by %q, which is read from the bitstream without a preceding bounds check against a cap",
							name)
					}
					continue
				}
				pass.Reportf(s.pos,
					"make() sized by %s with no bounds check on the path; cap it against a computed budget before allocating",
					desc)
			case sinkLoop:
				if !tv.viaCall {
					continue
				}
				pass.Reportf(s.pos,
					"loop bounded by %s with no bounds check on the path; validate it against a computed budget before looping",
					desc)
			case sinkCall:
				pass.Reportf(s.pos,
					"%s flows unchecked into %s; cap it before the call",
					short, s.desc)
			}
		}
	}
}
