// Package cursor is a leakcheck-analyzer fixture for the streaming-cursor
// rows of the resource table: query, rule and bindings cursors opened
// here must be closed on every path or escape to a caller.
package cursor

import (
	"context"

	"logicblox/internal/core"
	"logicblox/internal/engine"
)

func badLeak(ws *core.Workspace) error {
	cur, err := ws.QueryStream(context.Background(), "q") // want: query cursor cur may not be released
	if err != nil {
		return err
	}
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
	}
	return cur.Err()
}

func badDiscard(ws *core.Workspace) {
	ws.QueryStream(context.Background(), "q") // want: discarded
}

func badBlank(ws *core.Workspace) error {
	_, err := ws.QueryStream(context.Background(), "q") // want: discarded
	return err
}

func badStream(e *engine.Context) {
	cur, err := e.StreamRule(nil) // want: rule cursor cur may not be released
	if err != nil {
		return
	}
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
	}
}

func badBindings(e *engine.Context) error {
	b, err := e.Bindings(nil, nil) // want: bindings cursor b may not be released
	if err != nil {
		return err
	}
	for _, ok := b.Next(); ok; _, ok = b.Next() {
	}
	return b.Err()
}

// badOnePath closes only when b holds — the flow-insensitive check this
// fixture was written for could not see that.
func badOnePath(ws *core.Workspace, b bool) error {
	cur, err := ws.QueryCursor(context.Background(), "q") // want: query cursor cur may not be released
	if err != nil {
		return err
	}
	if b {
		cur.Close()
	}
	return nil
}

func okDefer(ws *core.Workspace) error {
	cur, err := ws.QueryStream(context.Background(), "q")
	if err != nil {
		return err
	}
	defer cur.Close()
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
	}
	return cur.Err()
}

func okBindings(e *engine.Context) error {
	b, err := e.Bindings(nil, nil)
	if err != nil {
		return err
	}
	defer b.Close()
	for _, ok := b.Next(); ok; _, ok = b.Next() {
	}
	return b.Err()
}

func okExplicit(e *engine.Context) {
	cur, err := e.StreamRule(nil)
	if err != nil {
		return
	}
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
	}
	cur.Close()
}

func okEscapeReturn(ws *core.Workspace) (*core.Cursor, error) {
	return ws.QueryStream(context.Background(), "q")
}

func okEscapeVarReturn(e *engine.Context) *engine.RuleCursor {
	cur, _ := e.StreamRule(nil)
	return cur
}

func okEscapePass(e *engine.Context, drain func(*engine.RuleCursor)) {
	cur, _ := e.StreamRule(nil)
	drain(cur)
}

type holder struct{ cur *engine.RuleCursor }

func okEscapeStore(e *engine.Context) *holder {
	h := &holder{}
	h.cur, _ = e.StreamRule(nil)
	return h
}

func okEscapeComposite(e *engine.Context) *holder {
	cur, _ := e.StreamRule(nil)
	return &holder{cur: cur}
}

func okClosureClose(ws *core.Workspace) error {
	cur, err := ws.QueryStream(context.Background(), "q")
	if err != nil {
		return err
	}
	defer func() { cur.Close() }()
	return cur.Err()
}
