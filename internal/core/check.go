package core

import (
	"fmt"

	"logicblox/internal/analysis/logiql"
	"logicblox/internal/ast"
	"logicblox/internal/parser"
)

// CheckProgram runs the warning-tier LogiQL checker over the workspace's
// installed logic merged with an optional candidate program. The merge
// matters: a rule is dead or unconsumed relative to the whole workspace,
// not its own block — installing a block that replaces another rule's
// only consumer makes the producer unconsumed, and this is where that
// surfaces. src may be empty to audit just the installed blocks.
//
// Warnings never reject the program; a candidate that fails to parse is
// the only error (wrapped ErrParse). Surfaced through `lb :check` and
// the server's POST /check.
func (ws *Workspace) CheckProgram(src string) ([]logiql.Warning, error) {
	var candidate *ast.Program
	if src != "" {
		prog, err := parser.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("check %w: %w", ErrParse, err)
		}
		candidate = prog
	}
	installed, err := parseBlocks(ws.blocks)
	if err != nil {
		return nil, err
	}
	merged := &ast.Program{}
	for _, prog := range installed {
		merged.Clauses = append(merged.Clauses, prog.Clauses...)
	}
	if candidate != nil {
		merged.Clauses = append(merged.Clauses, candidate.Clauses...)
	}
	return logiql.CheckProgram(merged), nil
}
