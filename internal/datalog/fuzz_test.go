package datalog

import (
	"testing"

	"mpclogic/internal/rel"
)

// FuzzParseDatalog asserts two properties over arbitrary program text
// (the body of a Datalog query request):
//
//  1. Parse never panics — it returns an error on garbage, on unsafe
//     rules and on inconsistent arities.
//  2. Parse–print–parse is a fixpoint: a successfully parsed program
//     renders (String, one rule per line) to text that reparses to a
//     program with the identical rendering. Comments, blank lines and
//     the per-rule normalizations of FuzzParseCQ are not required to
//     survive the first rendering.
func FuzzParseDatalog(f *testing.F) {
	for _, s := range []string{
		"TC(x, y) :- E(x, y).\nTC(x, z) :- TC(x, y), E(y, z).",
		"% reachability\n\nR(x) :- S(x)\nR(y) :- R(x), E(x, y)\n",
		"Win(x) :- Move(x, y), not Win(y)",
		"U(x) :- ADom(x), not R(x)",
		"O(x) :- R(x, 'a'), x != 3\r\nP(x) <- O(x), ¬Q(x)",
		"H(x) :- R(x)\nH(x, y) :- R(x), R(y)", // inconsistent arity
		"H(x, y) :- R(x)",                     // unsafe head variable
		"% only a comment",
		"H(x) :- R(x\nS(y) :- T(y)",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d := rel.NewDict()
		p, err := Parse(d, src)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		s1 := p.String()
		p2, err := Parse(d, s1)
		if err != nil {
			t.Fatalf("canonical rendering does not reparse: Parse(%q) -> %q -> %v", src, s1, err)
		}
		if s2 := p2.String(); s2 != s1 {
			t.Fatalf("print-parse-print not a fixpoint: %q -> %q -> %q", src, s1, s2)
		}
		if len(p2.Rules) != len(p.Rules) {
			t.Fatalf("rendering of %d rules reparsed to %d", len(p.Rules), len(p2.Rules))
		}
	})
}
