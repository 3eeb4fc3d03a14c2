package core

import "logicblox/internal/obs"

// Option is a functional configuration of a workspace, applied by
// logicblox.Open to the root workspace before the first commit so the
// whole lineage inherits it.
type Option func(*Workspace) *Workspace

// OptObserver attaches a metrics registry to the lineage.
func OptObserver(reg *obs.Registry) Option {
	return func(ws *Workspace) *Workspace { return ws.WithObserver(reg) }
}
