package ivm

import (
	"time"

	"logicblox/internal/obs"
)

// SetObserver points the maintainer's evaluations at reg (nil disables
// instrumentation). Maintenance passes then publish ivm.* counters, an
// ivm.apply.duration histogram, and an "ivm.apply" span per Apply call,
// and the underlying engine context records per-rule profiles into the
// same registry.
func (m *Maintainer) SetObserver(reg *obs.Registry) { m.ctx.SetObserver(reg) }

// Observer returns the registry maintenance passes record into, or nil.
func (m *Maintainer) Observer() *obs.Registry { return m.ctx.Observer() }

// observeApply opens the per-pass span and returns a closure that
// publishes the pass's work counters once maintenance is done. It is
// a no-op (returning a no-op closure) when no observer is attached.
func (m *Maintainer) observeApply(deltas map[string]Delta) func() {
	reg := m.ctx.Observer()
	if reg == nil {
		return func() {}
	}
	var ins, del int64
	for _, d := range deltas {
		ins += int64(len(d.Ins))
		del += int64(len(d.Del))
	}
	sp := reg.StartSpan("ivm.apply." + m.mode.String())
	sp.SetAttr("base_ins", ins)
	sp.SetAttr("base_del", del)
	m.ctx.SetSpan(sp)
	t0 := time.Now()
	return func() {
		m.ctx.SetSpan(nil)
		sp.SetAttr("rules_evaluated", int64(m.Stats.RulesEvaluated))
		sp.SetAttr("rules_skipped", int64(m.Stats.RulesSkipped))
		sp.End()
		reg.Histogram("ivm.apply.duration").Observe(time.Since(t0))
		reg.Counter("ivm.applies").Add(1)
		reg.Counter("ivm.delta.ins").Add(ins)
		reg.Counter("ivm.delta.del").Add(del)
		reg.Counter("ivm.rules.evaluated").Add(int64(m.Stats.RulesEvaluated))
		reg.Counter("ivm.rules.skipped").Add(int64(m.Stats.RulesSkipped))
		reg.Counter("ivm.rederive.checks").Add(int64(m.Stats.RederiveChecks))
		reg.Counter("ivm.groups.signed").Add(int64(m.Stats.GroupsSigned))
		reg.Counter("ivm.groups.refolded").Add(int64(m.Stats.GroupsRefolded))
	}
}
