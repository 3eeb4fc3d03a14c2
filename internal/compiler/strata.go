package compiler

import (
	"fmt"
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
	type edge struct {
		to      string
		blocked bool // negation or aggregation: must cross strata
	}
	succ := map[string][]edge{}
	nodes := map[string]bool{}
	for name := range preds {
		nodes[name] = true
	}
	for _, r := range rules {
		nodes[r.HeadName] = true
		blockedAll := r.Agg != nil || r.Predict != nil
		for _, b := range r.BodyNames {
			nodes[b] = true
			succ[b] = append(succ[b], edge{to: r.HeadName, blocked: blockedAll})
		}
		for _, b := range r.NegNames {
			nodes[b] = true
			succ[b] = append(succ[b], edge{to: r.HeadName, blocked: true})
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
				next := edges[f.ei].to
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

	// Reject blocked edges within a component and compute stratum levels:
	// level(head SCC) ≥ level(body SCC), strictly greater across blocked
	// edges.
	level := make([]int, nComp)
	// Tarjan emits components in reverse topological order of the
	// condensation (successors first), so iterating components from
	// nComp-1 down to 0 visits dependencies before dependents... in our
	// edge direction (body → head), a head's component is emitted before
	// the body's. Process in increasing component id: dependencies
	// (bodies) have HIGHER ids, so instead relax iteratively.
	for changed := true; changed; {
		changed = false
		for from, es := range succ {
			for _, e := range es {
				cf, ct := comp[from], comp[e.to]
				if cf == ct {
					if e.blocked {
						return nil, nil, fmt.Errorf("program is not stratified: %s depends on itself through negation or aggregation", BaseName(e.to))
					}
					continue
				}
				need := level[cf]
				if e.blocked {
					need++
				}
				if level[ct] < need {
					level[ct] = need
					changed = true
				}
			}
		}
	}

	// Group rules by (level, component) of their head, ordered by level
	// then component id for determinism.
	type key struct{ level, comp int }
	groups := map[key][]*RulePlan{}
	for _, r := range rules {
		k := key{level[comp[r.HeadName]], comp[r.HeadName]}
		groups[k] = append(groups[k], r)
	}
	var keys []key
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		// Within a level, order by dependency: a component whose rules
		// read another component's head must come later. Since both are
		// at the same level only non-blocked cross edges exist; approximate
		// with reverse component id (Tarjan emits heads before bodies).
		return keys[i].comp > keys[j].comp
	})
	var strata [][]*RulePlan
	var idb []string
	seenPred := map[string]bool{}
	for _, k := range keys {
		grp := groups[k]
		sort.Slice(grp, func(i, j int) bool { return grp[i].ID < grp[j].ID })
		strata = append(strata, grp)
		for _, r := range grp {
			if !seenPred[r.HeadName] {
				seenPred[r.HeadName] = true
				idb = append(idb, r.HeadName)
			}
		}
	}
	return strata, idb, nil
}
