package compiler

import (
	"fmt"
	"slices"
)

// stratify orders the static rules into evaluation strata. Rules whose
// head predicates are mutually recursive share a stratum (evaluated to a
// fixpoint together); negation and aggregation through a recursive cycle
// is rejected (the classical stratified-Datalog condition, which keeps
// the two-valued semantics of T2 well defined). p extends base: when the
// rules p adds neither derive a predicate base's rules derive nor feed
// one base's rules read, their strata are stacked above base's, which are
// kept as they are, rather than every rule being stratified again.
func stratify(p, base *Program) error {
	strata, kept, err := stackStrata(p.Rules, len(base.Rules), base.Strata)
	if err != nil {
		return err
	}
	p.Strata = strata
	if kept {
		p.IDBPreds = appendHeads(slices.Clip(base.IDBPreds), strata[len(base.Strata):])
	} else {
		p.IDBPreds = appendHeads(nil, strata)
	}
	// Reactive rules get their own stratification over decorated names,
	// used by the exec-transaction pipeline.
	rstrata, _, err := stackStrata(p.Reactive, len(base.Reactive), base.ReactiveStrata)
	if err != nil {
		return fmt.Errorf("in reactive rules: %w", err)
	}
	p.ReactiveStrata = rstrata
	return nil
}

// stackStrata stratifies rules, of which rules[:from] are stratified as
// below already: when the rules from on can stack above them, only those
// are stratified, and their strata follow below's (kept reports it). The
// strata order makes that exact: a rule's stratum follows every stratum
// it reads, and otherwise strata come in the order of their first rules,
// so the rules before from, which read nothing the later ones derive,
// fill the first strata just as they do alone.
func stackStrata(rules []*RulePlan, from int, below [][]*RulePlan) (strata [][]*RulePlan, kept bool, err error) {
	if from == len(rules) {
		return below, true, nil
	}
	if from > 0 && stacked(rules, from) {
		strata, err := computeStrata(rules[from:])
		if err != nil {
			return nil, false, err
		}
		return append(slices.Clip(below), strata...), true, nil
	}
	strata, err = computeStrata(rules)
	return strata, false, err
}

// stacked reports whether rules[from:] can stack above rules[:from]: no
// earlier rule derives or reads a predicate a later one derives.
func stacked(rules []*RulePlan, from int) bool {
	for _, n := range rules[from:] {
		for _, b := range rules[:from] {
			if b.HeadName == n.HeadName || slices.Contains(b.BodyNames, n.HeadName) || slices.Contains(b.NegNames, n.HeadName) {
				return false
			}
		}
	}
	return true
}

// appendHeads appends the head predicates of strata to idb, in stratum
// order, each once.
// A predicate's rules all share its stratum.
func appendHeads(idb []string, strata [][]*RulePlan) []string {
	for _, stratum := range strata {
		start := len(idb)
		for _, r := range stratum {
			if !slices.Contains(idb[start:], r.HeadName) {
				idb = append(idb, r.HeadName)
			}
		}
	}
	return idb
}

// StratumRecursive reports whether a stratum's rules feed each other:
// some rule reads, positively, a predicate the stratum derives. Such a
// stratum is evaluated to a fixpoint, any other in a single pass.
func StratumRecursive(stratum []*RulePlan) bool {
	heads := map[string]bool{}
	for _, r := range stratum {
		heads[r.HeadName] = true
	}
	for _, r := range stratum {
		for _, b := range r.BodyNames {
			if heads[b] {
				return true
			}
		}
	}
	return false
}

// ReadsAny reports whether the rule's body mentions, positively or
// negated, a predicate name for which changed holds.
func (p *RulePlan) ReadsAny(changed func(name string) bool) bool {
	for _, b := range p.BodyNames {
		if changed(b) {
			return true
		}
	}
	for _, b := range p.NegNames {
		if changed(b) {
			return true
		}
	}
	return false
}

// computeStrata stratifies one rule set. Its components are the strongly
// connected ones of the graph whose nodes are the rules' head predicates
// and whose edges run from a head a rule reads to the head it derives
// (Tarjan, iterative); a predicate no rule derives is a source, outside
// every stratum. Each component is one stratum, its rules in rule order;
// a stratum follows every stratum it reads, and otherwise strata come in
// the order of their first rules.
func computeStrata(rules []*RulePlan) ([][]*RulePlan, error) {
	if len(rules) == 1 { // a request's one rule: no graph to search
		r := rules[0]
		blocked := r.NegNames
		if r.Agg != nil || r.Predict != nil {
			blocked = append(slices.Clip(r.BodyNames), r.NegNames...)
		}
		if slices.Contains(blocked, r.HeadName) {
			return nil, fmt.Errorf("program is not stratified: %s depends on itself through negation or aggregation", BaseName(r.HeadName))
		}
		return [][]*RulePlan{slices.Clip(rules)}, nil
	}
	node := map[string]int{} // head predicate → node
	for _, r := range rules {
		if _, ok := node[r.HeadName]; !ok {
			node[r.HeadName] = len(node)
		}
	}
	n := len(node)
	succ := make([][]int, n) // node → the nodes of the heads it feeds
	reads := func(r *RulePlan, f func(b int)) {
		for _, bs := range [2][]string{r.BodyNames, r.NegNames} {
			for _, b := range bs {
				if v, ok := node[b]; ok {
					f(v)
				}
			}
		}
	}
	for _, r := range rules {
		h := node[r.HeadName]
		reads(r, func(b int) { succ[b] = append(succ[b], h) })
	}

	// Tarjan's strongly connected components, iterative.
	index := make([]int, n) // 0: unvisited, else the visit number + 1
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	var stack []int
	counter, nComp := 0, 0
	type frame struct{ node, ei int }
	for start := 0; start < n; start++ {
		if index[start] != 0 {
			continue
		}
		counter++
		index[start], low[start] = counter, counter
		stack = append(stack, start)
		onStack[start] = true
		frames := []frame{{node: start}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if edges := succ[f.node]; f.ei < len(edges) {
				next := edges[f.ei]
				f.ei++
				if index[next] == 0 {
					counter++
					index[next], low[next] = counter, counter
					stack = append(stack, next)
					onStack[next] = true
					frames = append(frames, frame{node: next})
				} else if onStack[next] && index[next] < low[f.node] {
					low[f.node] = index[next]
				}
				continue
			}
			// Finished node.
			if low[f.node] == index[f.node] {
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp[top] = nComp
					if top == f.node {
						break
					}
				}
				nComp++
			}
			done := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if parent := frames[len(frames)-1].node; low[done] < low[parent] {
					low[parent] = low[done]
				}
			}
		}
	}

	// Negation and aggregation must cross strata: a negated body
	// predicate, or any body predicate of an aggregate or predict rule,
	// may not share its head's component.
	byComp := make([][]*RulePlan, nComp)
	for _, r := range rules {
		blocked := r.NegNames
		if r.Agg != nil || r.Predict != nil {
			blocked = append(slices.Clip(r.BodyNames), r.NegNames...)
		}
		c := comp[node[r.HeadName]]
		for _, b := range blocked {
			if v, ok := node[b]; ok && comp[v] == c {
				return nil, fmt.Errorf("program is not stratified: %s depends on itself through negation or aggregation", BaseName(r.HeadName))
			}
		}
		byComp[c] = append(byComp[c], r)
	}

	// Each component is emitted after the components its rules read,
	// components taken in the order of their first rules.
	strata := make([][]*RulePlan, 0, nComp)
	emitted := make([]bool, nComp)
	var emit func(c int)
	emit = func(c int) {
		emitted[c] = true
		for _, r := range byComp[c] {
			reads(r, func(b int) {
				if !emitted[comp[b]] {
					emit(comp[b])
				}
			})
		}
		strata = append(strata, byComp[c])
	}
	for _, r := range rules {
		if c := comp[node[r.HeadName]]; !emitted[c] {
			emit(c)
		}
	}
	return strata, nil
}
