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
}

// Observer returns the registry evaluations record into, or nil.
func (c *Context) Observer() *obs.Registry { return c.obs }

// SetSpan makes sp the parent of spans created by subsequent stratum and
// rule evaluations (nil detaches). Callers that drive strata directly
// (transactions, maintenance) use this to attach engine work to their own
// trace.
func (c *Context) SetSpan(sp *obs.Span) { c.span = sp }

// ruleStatsFor returns the registry's profile record for r, or nil when
// no observer is attached. Profiles are keyed by source text, not by
// plan: a rule's delta variants and the restricted copies DRed and
// refolds evaluate share its source, and so its profile.
func (c *Context) ruleStatsFor(r *compiler.RulePlan) *obs.RuleStats {
	return c.obs.Rule(r.HeadName, r.Source)
}
