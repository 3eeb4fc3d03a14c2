package engine_test

// Live-programming differential harness (paper §3.3): every generated
// program is installed one block per rule, then blocks are removed and
// re-added and small exec transactions run in a seeded order. After every
// step the maintained workspace — which re-evaluates the heads of the
// rules a block change adds or removes, and maintains everything else the
// change reaches from those heads' deltas — must hold, for every derived
// predicate, exactly what a workspace built from scratch over the
// surviving blocks and the current base data holds, and what the
// nested-loop reference computes from the surviving rules.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"logicblox/internal/core"
	"logicblox/internal/ivm"
	"logicblox/internal/obs"
	"logicblox/internal/relation"
)

// liveSteps is the length of each program's step sequence.
const liveSteps = 12

func blockName(rule int) string { return fmt.Sprintf("r%02d", rule) }

// buildLiveWorkspace loads base into an empty workspace (data first), then
// installs each listed rule of p as a block of its own, in rule order.
func buildLiveWorkspace(t *testing.T, p *genProgram, base map[string]relation.Relation, rules []int) *core.Workspace {
	t.Helper()
	ws := core.NewWorkspace()
	var err error
	for _, name := range p.baseNames() {
		if ws, err = ws.Insert(name, base[name].Slice()...); err != nil {
			t.Fatalf("seed %d: load %s: %v", p.seed, name, err)
		}
	}
	for _, i := range rules {
		if ws, err = ws.AddBlock(blockName(i), p.rules[i].source()); err != nil {
			t.Fatalf("seed %d: addblock %s: %v\n%s", p.seed, blockName(i), err, p.rules[i].source())
		}
	}
	return ws
}

// execSource renders a delta batch as an exec transaction: the deletions,
// then the insertions (the frame rules let an insertion win over a
// deletion of the same tuple, as applyToBase does).
func execSource(deltas map[string]ivm.Delta) string {
	names := make([]string, 0, len(deltas))
	for name := range deltas {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		for _, t := range deltas[name].Del {
			fmt.Fprintf(&b, "-%s%v.\n", name, t)
		}
		for _, t := range deltas[name].Ins {
			fmt.Fprintf(&b, "+%s%v.\n", name, t)
		}
	}
	return b.String()
}

// blockChangeLabels counts the maintained_by labels of the stratum spans
// in the last trace in reg, which must be an addblock's or removeblock's.
func blockChangeLabels(t *testing.T, reg *obs.Registry, by map[string]int) {
	t.Helper()
	tr, _ := reg.LastTrace()
	if tr.Name != "tx.addblock" && tr.Name != "tx.removeblock" {
		t.Fatalf("last trace %q is not a block change", tr.Name)
	}
	var walk func(sp obs.SpanSnapshot)
	walk = func(sp obs.SpanSnapshot) {
		for _, l := range sp.Labels {
			if sp.Name == "stratum" && l.Key == "maintained_by" {
				by[l.Val]++
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(tr)
}

// TestDifferentialLiveProgramming also checks, over the suite, that block
// changes re-evaluate the changed heads (reeval) and maintain their
// readers by delta (dred, signed or refold).
func TestDifferentialLiveProgramming(t *testing.T) {
	labels := map[string]int{}
	for seed := int64(0); seed < suitePrograms; seed++ {
		p := suiteProgram(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x11fe))
		installed := make([]bool, len(p.rules))
		all := make([]int, len(p.rules))
		for i := range p.rules {
			installed[i], all[i] = true, i
		}
		cur := p.base
		reg := obs.NewRegistry()
		ws := buildLiveWorkspace(t, p, cur, all).WithObserver(reg)
		var log []string
		for step := 0; step < liveSteps; step++ {
			var err error
			switch i := rng.Intn(len(p.rules)); {
			case rng.Intn(3) == 0:
				deltas := randomDeltas(rng, p, cur, mixedBatch)
				if len(deltas) == 0 {
					continue
				}
				src := execSource(deltas)
				log = append(log, "exec "+strings.ReplaceAll(src, "\n", " "))
				var res *core.ExecResult
				if res, err = ws.Exec(src); err == nil {
					ws, cur = res.Workspace, applyToBase(cur, deltas)
				}
			case installed[i]:
				log = append(log, "removeblock "+blockName(i))
				if ws, err = ws.RemoveBlock(blockName(i)); err == nil {
					blockChangeLabels(t, reg, labels)
				}
				installed[i] = false
			default:
				log = append(log, "addblock "+blockName(i))
				if ws, err = ws.AddBlock(blockName(i), p.rules[i].source()); err == nil {
					blockChangeLabels(t, reg, labels)
				}
				installed[i] = true
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v\n%s\nsteps:\n%s", seed, step, err, p.source(), strings.Join(log, "\n"))
			}

			var surviving []int
			left := &genProgram{seed: p.seed, arities: p.arities, derived: p.derived}
			for i, r := range p.rules {
				if installed[i] {
					surviving = append(surviving, i)
					left.rules = append(left.rules, r)
				}
			}
			scratch := buildLiveWorkspace(t, p, cur, surviving)
			ref := refEval(left, cur)
			for _, d := range p.derived {
				got := ws.Relation(d)
				if want := scratch.Relation(d); !got.Equal(want) || !got.Equal(ref[d]) {
					t.Fatalf("seed %d step %d: %s diverged\n%s\nmaintained: %v\nfrom scratch: %v\nreference: %v\nsteps:\n%s",
						seed, step, d, p.source(), sortedSlice(got), sortedSlice(want), sortedSlice(ref[d]), strings.Join(log, "\n"))
				}
			}
		}
	}
	if labels["reeval"] == 0 || labels["dred"]+labels["signed"]+labels["refold"] == 0 {
		t.Errorf("block changes maintained strata by %v; want both reeval and a delta label", labels)
	}
}
