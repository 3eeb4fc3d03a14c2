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
	c.ruleStats = map[int]*obs.RuleStats{}
}

// Observer returns the registry evaluations record into, or nil.
func (c *Context) Observer() *obs.Registry { return c.obs }

// SetSpan makes sp the parent of spans created by subsequent stratum and
// rule evaluations (nil detaches). Callers that drive strata directly
// (transactions, maintenance) use this to attach engine work to their own
// trace.
func (c *Context) SetSpan(sp *obs.Span) { c.span = sp }

// ruleStatsFor returns (caching) the registry's profile record for r, or
// nil when no observer is attached.
func (c *Context) ruleStatsFor(r *compiler.RulePlan) *obs.RuleStats {
	if c.obs == nil {
		return nil
	}
	rs, ok := c.ruleStats[r.ID]
	if !ok {
		rs = c.obs.Rule(r.ID, r.HeadName, r.Source)
		c.ruleStats[r.ID] = rs
	}
	return rs
}
