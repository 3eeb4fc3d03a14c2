// Package logiql is the warning-tier checker for LogiQL programs: it
// flags program smells — rules that can never fire, heads nobody reads,
// variables used once, duplicate or subsumed rules, constraints whose
// body is trivially unsatisfiable — without rejecting the program. The
// compiler stays the arbiter of hard errors; these checks surface the
// mistakes that type-check fine and then silently do nothing, which in a
// declarative language is the expensive kind of bug (paper §2.2: the
// program is the spec, so a clause that cannot contribute is almost
// always a typo). Surfaced through `lb :check`, `lb-lint -logiql`, and
// the server's POST /check endpoint.
package logiql

import (
	"fmt"
	"sort"
	"strings"

	"logicblox/internal/ast"
	"logicblox/internal/tuple"
)

// Warning checks.
const (
	CheckDeadRule   = "dead-rule"
	CheckUnconsumed = "unconsumed"
	CheckSingleton  = "singleton-var"
	CheckDuplicate  = "duplicate-rule"
	CheckSubsumed   = "subsumed-rule"
	CheckUnsat      = "unsat-constraint"
)

// Warning is one advisory finding about a clause. Clause carries the
// printed form of the offending clause (the AST carries no source
// positions; the printed clause is the stable way to point at it).
type Warning struct {
	Check   string `json:"check"`
	Clause  string `json:"clause"`
	Message string `json:"message"`
}

func (w Warning) String() string {
	return w.Check + ": " + w.Message + " [" + w.Clause + "]"
}

// CheckProgram runs every warning-tier check over the program — which
// may be a single block or the merge of all installed blocks plus a
// candidate (see core.Workspace.CheckProgram) — and returns the
// warnings in a deterministic order.
func CheckProgram(p *ast.Program) []Warning {
	var warns []Warning
	warns = append(warns, checkDeadRules(p)...)
	warns = append(warns, checkUnconsumed(p)...)
	warns = append(warns, checkSingletons(p)...)
	warns = append(warns, checkDuplicates(p)...)
	warns = append(warns, checkUnsatConstraints(p)...)
	sort.SliceStable(warns, func(i, j int) bool {
		if warns[i].Check != warns[j].Check {
			return warns[i].Check < warns[j].Check
		}
		return warns[i].Clause < warns[j].Clause
	})
	return warns
}

// atomPreds collects the predicate names an atom mentions: its own and
// those of functional applications nested in its terms.
func atomPreds(a *ast.Atom, out map[string]bool) {
	out[a.Pred] = true
	for _, t := range a.AllTerms() {
		termPreds(t, out)
	}
}

func termPreds(t ast.Term, out map[string]bool) {
	switch term := t.(type) {
	case ast.FuncApp:
		out[term.Pred] = true
		for _, arg := range term.Args {
			termPreds(arg, out)
		}
	case ast.Arith:
		termPreds(term.L, out)
		termPreds(term.R, out)
	}
}

// positiveBodyPreds returns the predicates a rule's positive body
// literals (and functional terms anywhere in the rule) depend on: the
// predicates that must be derivable for the rule to ever fire. Negated
// atoms do not gate firing — negation succeeds on empty predicates.
func positiveBodyPreds(r *ast.Rule) map[string]bool {
	deps := map[string]bool{}
	for _, l := range r.Body {
		switch {
		case l.Cmp != nil:
			termPreds(l.Cmp.L, deps)
			termPreds(l.Cmp.R, deps)
		case l.Negated:
			for _, t := range l.Atom.AllTerms() {
				termPreds(t, deps)
			}
		default:
			atomPreds(l.Atom, deps)
		}
	}
	for _, h := range r.Heads {
		for _, t := range h.AllTerms() {
			termPreds(t, deps)
		}
	}
	return deps
}

// checkDeadRules runs a derivability fixpoint: predicates with no rules
// are assumed EDB (stored, possibly populated), facts are immediately
// derivable, and a rule fires once all its positive dependencies are
// derivable. Rules that never fire — classically, recursion without a
// base case — are dead.
func checkDeadRules(p *ast.Program) []Warning {
	rules := p.Rules()
	headed := map[string]bool{} // predicates some rule derives
	for _, r := range rules {
		for _, h := range r.Heads {
			headed[h.Pred] = true
		}
	}
	derivable := map[string]bool{}
	fired := make([]bool, len(rules))
	for changed := true; changed; {
		changed = false
		for i, r := range rules {
			if fired[i] {
				continue
			}
			ok := true
			for dep := range positiveBodyPreds(r) {
				if headed[dep] && !derivable[dep] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			fired[i] = true
			changed = true
			for _, h := range r.Heads {
				derivable[h.Pred] = true
			}
		}
	}
	var warns []Warning
	for i, r := range rules {
		if fired[i] {
			continue
		}
		warns = append(warns, Warning{
			Check:  CheckDeadRule,
			Clause: r.String(),
			Message: "rule can never fire: no derivation reaches its positive body predicates" +
				" (recursion without a base case, or a dependency no rule or stored predicate supplies)",
		})
	}
	return warns
}

// checkUnconsumed flags derived predicates nobody reads: the head
// predicate of a rule that no other clause's body, constraint, or
// directive mentions. References from a rule's own body (recursion)
// don't count as consumption — a self-feeding predicate nobody reads is
// still invisible. One warning per predicate, attached to the first
// rule deriving it.
func checkUnconsumed(p *ast.Program) []Warning {
	// usedOutside[pred]: referenced by a clause that does not derive pred.
	usedOutside := map[string]bool{}
	for _, c := range p.Clauses {
		refs := map[string]bool{}
		derives := map[string]bool{}
		switch cl := c.(type) {
		case *ast.Rule:
			for dep := range positiveBodyPreds(cl) {
				refs[dep] = true
			}
			for _, l := range cl.Body {
				if l.Negated && l.Atom != nil {
					refs[l.Atom.Pred] = true
				}
			}
			for _, h := range cl.Heads {
				derives[h.Pred] = true
			}
		case *ast.Constraint:
			for _, side := range [][]*ast.Literal{cl.Body, cl.Head} {
				for _, l := range side {
					if l.Atom != nil {
						atomPreds(l.Atom, refs)
					} else if l.Cmp != nil {
						termPreds(l.Cmp.L, refs)
						termPreds(l.Cmp.R, refs)
					}
				}
			}
		case *ast.Directive:
			for _, a := range cl.Args {
				refs[a] = true
			}
		}
		for pred := range refs {
			if !derives[pred] {
				usedOutside[pred] = true
			}
		}
	}
	seen := map[string]bool{}
	var warns []Warning
	for _, r := range p.Rules() {
		for _, h := range r.Heads {
			if usedOutside[h.Pred] || seen[h.Pred] || h.Pred == "_" {
				continue
			}
			seen[h.Pred] = true
			warns = append(warns, Warning{
				Check:  CheckUnconsumed,
				Clause: r.String(),
				Message: fmt.Sprintf("derived predicate %q is never read by any rule body, constraint, or directive",
					h.Pred),
			})
		}
	}
	return warns
}

// termVars counts variable occurrences in a term.
func termVars(t ast.Term, count map[string]int) {
	switch term := t.(type) {
	case ast.Var:
		count[term.Name]++
	case ast.Arith:
		termVars(term.L, count)
		termVars(term.R, count)
	case ast.FuncApp:
		for _, arg := range term.Args {
			termVars(arg, count)
		}
	}
}

// checkSingletons flags variables that occur exactly once in a rule —
// in LogiQL a variable used once carries no join constraint, so it is
// either a typo for another variable or should be the wildcard `_`.
// Constraints are exempt: type declarations like `p(x) -> int(x).`
// routinely name variables once per side.
func checkSingletons(p *ast.Program) []Warning {
	var warns []Warning
	for _, r := range p.Rules() {
		count := map[string]int{}
		for _, h := range r.Heads {
			for _, t := range h.AllTerms() {
				termVars(t, count)
			}
		}
		for _, l := range r.Body {
			if l.Cmp != nil {
				termVars(l.Cmp.L, count)
				termVars(l.Cmp.R, count)
			} else {
				for _, t := range l.Atom.AllTerms() {
					termVars(t, count)
				}
			}
		}
		if r.Agg != nil {
			count[r.Agg.Result]++
			if r.Agg.Arg != "" {
				count[r.Agg.Arg]++
			}
		}
		if r.Pred != nil {
			count[r.Pred.Result]++
			count[r.Pred.Value]++
			count[r.Pred.Feature]++
		}
		var singles []string
		for v, n := range count {
			if n == 1 {
				singles = append(singles, v)
			}
		}
		sort.Strings(singles)
		for _, v := range singles {
			warns = append(warns, Warning{
				Check:  CheckSingleton,
				Clause: r.String(),
				Message: fmt.Sprintf("variable %q occurs only once; a join variable used once is usually a typo (use _ if the position is deliberately unconstrained)",
					v),
			})
		}
	}
	return warns
}

// checkDuplicates flags syntactically identical rules and rules whose
// body is a strict superset of another rule with the same heads: the
// narrower rule can only derive tuples the wider one already derives.
// The comparison is syntactic (printed form), deliberately: it catches
// copy-paste, not clever renamings.
func checkDuplicates(p *ast.Program) []Warning {
	rules := p.Rules()
	type ruleKey struct {
		heads string
		body  map[string]bool
		str   string
		extra bool // aggregation/predict rules are exempt from subsumption
	}
	keys := make([]ruleKey, len(rules))
	for i, r := range rules {
		heads := make([]string, len(r.Heads))
		for j, h := range r.Heads {
			heads[j] = h.String()
		}
		body := map[string]bool{}
		for _, l := range r.Body {
			body[l.String()] = true
		}
		keys[i] = ruleKey{
			heads: strings.Join(heads, ", "),
			body:  body,
			str:   r.String(),
			extra: r.Agg != nil || r.Pred != nil,
		}
	}
	var warns []Warning
	reported := map[int]bool{}
	for i := range keys {
		for j := range keys {
			if i == j || reported[i] {
				continue
			}
			if keys[i].heads != keys[j].heads {
				continue
			}
			if keys[i].str == keys[j].str {
				if i > j { // report the later copy once
					reported[i] = true
					warns = append(warns, Warning{
						Check:   CheckDuplicate,
						Clause:  keys[i].str,
						Message: "rule is an exact duplicate of an earlier rule",
					})
				}
				continue
			}
			if keys[i].extra || keys[j].extra {
				continue
			}
			if len(keys[j].body) < len(keys[i].body) && subset(keys[j].body, keys[i].body) {
				reported[i] = true
				warns = append(warns, Warning{
					Check:  CheckSubsumed,
					Clause: keys[i].str,
					Message: fmt.Sprintf("rule is subsumed by the more general rule [%s]: every tuple it derives is already derived",
						keys[j].str),
				})
			}
		}
	}
	return warns
}

func subset(small, big map[string]bool) bool {
	for k := range small {
		if !big[k] {
			return false
		}
	}
	return true
}

// checkUnsatConstraints flags constraints whose body can never hold: a
// comparison false for every binding (same term on both sides of a
// strict operator, or a constant comparison that evaluates false), or
// an atom required both positively and negatively. Such a constraint is
// vacuously satisfied — it guards nothing, which is never what its
// author meant.
func checkUnsatConstraints(p *ast.Program) []Warning {
	var warns []Warning
	for _, c := range p.Constraints() {
		if reason := unsatReason(c.Body); reason != "" {
			warns = append(warns, Warning{
				Check:   CheckUnsat,
				Clause:  c.String(),
				Message: "constraint body is unsatisfiable (" + reason + "), so the constraint is vacuously satisfied and guards nothing",
			})
		}
	}
	return warns
}

func unsatReason(body []*ast.Literal) string {
	pos := map[string]bool{}
	neg := map[string]bool{}
	for _, l := range body {
		if l.Cmp != nil {
			if r := unsatCmp(l.Cmp); r != "" {
				return r
			}
			continue
		}
		if l.Negated {
			neg[l.Atom.String()] = true
		} else {
			pos[l.Atom.String()] = true
		}
	}
	for s := range pos {
		if neg[s] {
			return fmt.Sprintf("requires both %s and !%s", s, s)
		}
	}
	return ""
}

func unsatCmp(cmp *ast.Comparison) string {
	if cmp.L.String() == cmp.R.String() {
		switch cmp.Op {
		case ast.OpNe, ast.OpLt, ast.OpGt:
			return fmt.Sprintf("%s is false for every binding", cmp)
		}
		return ""
	}
	lc, lok := cmp.L.(ast.Const)
	rc, rok := cmp.R.(ast.Const)
	if !lok || !rok {
		return ""
	}
	c := tuple.Compare(lc.Val, rc.Val)
	holds := false
	switch cmp.Op {
	case ast.OpEq:
		holds = c == 0
	case ast.OpNe:
		holds = c != 0
	case ast.OpLt:
		holds = c < 0
	case ast.OpLe:
		holds = c <= 0
	case ast.OpGt:
		holds = c > 0
	case ast.OpGe:
		holds = c >= 0
	}
	if !holds {
		return fmt.Sprintf("constant comparison %s is false", cmp)
	}
	return ""
}
