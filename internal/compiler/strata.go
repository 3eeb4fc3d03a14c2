package compiler

import (
	"fmt"
	"slices"
	"sort"
)

// stratify orders the static rules into evaluation strata. Rules whose
// head predicates are mutually recursive share a stratum (evaluated to a
// fixpoint together); negation and aggregation through a recursive cycle
// is rejected (the classical stratified-Datalog condition, which keeps
// the two-valued semantics of T2 well defined).
func stratify(p *Program) error {
	strata, idb, err := computeStrata(p.Rules, p.Preds)
	if err != nil {
		return err
	}
	p.Strata, p.IDBPreds = strata, idb
	// Reactive rules get their own stratification over decorated names,
	// used by the exec-transaction pipeline.
	rstrata, _, err := computeStrata(p.Reactive, p.Preds)
	if err != nil {
		return fmt.Errorf("in reactive rules: %w", err)
	}
	p.ReactiveStrata = rstrata
	return nil
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

// computeStrata stratifies one rule set and returns the strata together
// with the derived predicate names in stratum order.
func computeStrata(rules []*RulePlan, preds map[string]*PredInfo) ([][]*RulePlan, []string, error) {
	succ := map[string][]string{} // body predicate → heads it feeds
	nodes := map[string]bool{}
	for name := range preds {
		nodes[name] = true
	}
	for _, r := range rules {
		nodes[r.HeadName] = true
		for _, bs := range [][]string{r.BodyNames, r.NegNames} {
			for _, b := range bs {
				nodes[b] = true
				succ[b] = append(succ[b], r.HeadName)
			}
		}
	}

	// Tarjan's strongly connected components, iterative.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	counter := 0
	nComp := 0

	var names []string
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	type frame struct {
		node string
		ei   int
	}
	for _, start := range names {
		if _, seen := index[start]; seen {
			continue
		}
		frames := []frame{{node: start}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			edges := succ[f.node]
			if f.ei < len(edges) {
				next := edges[f.ei]
				f.ei++
				if _, seen := index[next]; !seen {
					index[next] = counter
					low[next] = counter
					counter++
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
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[f.node] < low[parent] {
					low[parent] = low[f.node]
				}
			}
		}
	}

	// Negation and aggregation must cross strata: a negated body
	// predicate, or any body predicate of an aggregate or predict rule,
	// may not share its head's component.
	for _, r := range rules {
		blocked := r.NegNames
		if r.Agg != nil || r.Predict != nil {
			blocked = append(slices.Clip(r.BodyNames), r.NegNames...)
		}
		for _, b := range blocked {
			if comp[b] == comp[r.HeadName] {
				return nil, nil, fmt.Errorf("program is not stratified: %s depends on itself through negation or aggregation", BaseName(r.HeadName))
			}
		}
	}

	// Tarjan numbers each component after every component it reaches, and
	// edges run body → head, so every body predicate of a rule sits in a
	// component numbered above its head's: decreasing component id is a
	// stratum order. Rules arrive in ID order and keep it in their stratum.
	byComp := make([][]*RulePlan, nComp)
	for _, r := range rules {
		byComp[comp[r.HeadName]] = append(byComp[comp[r.HeadName]], r)
	}
	var strata [][]*RulePlan
	var idb []string
	seen := map[string]bool{}
	for c := nComp - 1; c >= 0; c-- {
		if len(byComp[c]) == 0 {
			continue
		}
		strata = append(strata, byComp[c])
		for _, r := range byComp[c] {
			if !seen[r.HeadName] {
				seen[r.HeadName] = true
				idb = append(idb, r.HeadName)
			}
		}
	}
	return strata, idb, nil
}
