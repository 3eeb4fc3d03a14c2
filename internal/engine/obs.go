package engine

import (
	"logicblox/internal/compiler"
	"logicblox/internal/obs"
)

// SetObserver points subsequent evaluations at reg (nil disables
// instrumentation). The incremental-maintenance and transaction layers
// use this to share one registry across many contexts.
func (c *Context) SetObserver(reg *obs.Registry) {
	c.obs = reg
	c.ruleStats = map[string]*obs.RuleStats{}
}

// Observer returns the registry evaluations record into, or nil.
func (c *Context) Observer() *obs.Registry { return c.obs }

// SetSpan makes sp the parent of spans created by subsequent stratum and
// rule evaluations (nil detaches). Callers that drive strata directly
// (transactions, maintenance) use this to attach engine work to their own
// trace.
func (c *Context) SetSpan(sp *obs.Span) { c.span = sp }

// ruleStatsFor returns (caching) the registry's profile record for r, or
// nil when no observer is attached. Both key profiles by source text, not
// by plan: a rule's delta variants and the restricted copies DRed and
// refolds evaluate share its source, and so its profile.
func (c *Context) ruleStatsFor(r *compiler.RulePlan) *obs.RuleStats {
	if c.obs == nil {
		return nil
	}
	rs, ok := c.ruleStats[r.Source]
	if !ok {
		rs = c.obs.Rule(r.HeadName, r.Source)
		c.ruleStats[r.Source] = rs
	}
	return rs
}
