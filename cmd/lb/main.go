// Command lb is an interactive LogiQL REPL over the logicblox engine:
// install blocks, run exec and query transactions, branch workspaces, and
// invoke the prescriptive-analytics solver.
//
// Usage:
//
//	lb [-stats] [-trace] [script.lb]
//
// With -stats, every transaction is followed by a per-rule profile table
// (evaluation time, tuples produced, leapfrog seeks/nexts, sensitivity
// records); with -trace, by a span tree of the transaction's phases.
// :stats dumps the full metric snapshot of the last transaction.
//
// Commands (everything else is interpreted as LogiQL):
//
//	:addblock <name> <<         start a multi-line block, terminated by ">>"
//	:removeblock <name>         uninstall a block
//	:load <name> <file>         install a block from a file
//	:import <pred> <file.csv>   bulk-load a base predicate from CSV
//	:blocks                     list installed blocks
//	:rel <predicate>            dump a predicate's contents
//	:branch <from> <to>         create a branch (O(1))
//	:checkout <branch>          switch the current branch
//	:branches                   list branches
//	:history                    list the retained committed versions
//	:branchat <i> <name>        branch from a historical version (time travel)
//	:solve                      run the LP/MIP solver on the current logic
//	:check [file]               warning-tier program checks (dead rules,
//	                            unconsumed heads, singleton variables, …)
//	                            over the installed logic, optionally
//	                            merged with a candidate file
//	:save <file>                write a snapshot of all branches
//	:open <file>                replace the session with a saved snapshot
//	:help                       show this help
//	:quit                       exit
//
// A line starting with "?-" runs a query: `?- _(x) <- p(x).`
// Any other line is an exec transaction: `+sales["a", 1] = 10.`
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"logicblox"
	"logicblox/internal/durable"
)

func main() {
	stats := flag.Bool("stats", false, "print a per-rule profile table after every transaction")
	trace := flag.Bool("trace", false, "print a phase span tree after every transaction")
	flag.Parse()

	r := &repl{db: logicblox.Open(), branch: logicblox.DefaultBranch, out: os.Stdout}
	r.enableObs(*stats, *trace)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)

	if args := flag.Args(); len(args) > 0 {
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r.run(bufio.NewScanner(f), false)
		f.Close()
	}
	fmt.Fprintln(r.out, "logicblox repl — :help for commands")
	r.run(in, true)
}

// repl holds the session state; output goes to out so tests can capture it.
type repl struct {
	db     *logicblox.Database
	branch string
	out    io.Writer

	// observability: reg is non-nil when -stats or -trace was given; the
	// registry is reset at the start of every transaction so the printed
	// profile covers exactly that transaction.
	reg   *logicblox.ObsRegistry
	stats bool
	trace bool
}

// enableObs installs a process-wide metrics registry when profiling
// output was requested.
func (r *repl) enableObs(stats, trace bool) {
	if !stats && !trace {
		return
	}
	r.reg = logicblox.NewObsRegistry()
	r.stats, r.trace = stats, trace
	logicblox.SetDefaultObserver(r.reg)
	logicblox.EnableStorageStats(true)
}

// beginTx clears per-transaction profiling state.
func (r *repl) beginTx() {
	if r.reg != nil {
		r.reg.Reset()
	}
}

// profile prints the requested profiling output for the transaction that
// just ran.
func (r *repl) profile() {
	if r.reg == nil {
		return
	}
	snap := r.reg.Snapshot()
	if r.stats {
		fmt.Fprint(r.out, logicblox.FormatRuleTable(snap))
	}
	if r.trace {
		for _, t := range snap.Traces {
			fmt.Fprint(r.out, logicblox.FormatSpanTree(t))
		}
	}
}

func (r *repl) run(in *bufio.Scanner, interactive bool) {
	var blockName string
	var blockLines []string
	prompt := func() {
		if interactive {
			if blockName != "" {
				fmt.Fprint(r.out, "... ")
			} else {
				fmt.Fprintf(r.out, "%s> ", r.branch)
			}
		}
	}
	prompt()
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if blockName != "" {
			if line == ">>" {
				r.installBlock(blockName, strings.Join(blockLines, "\n"))
				blockName, blockLines = "", nil
			} else {
				blockLines = append(blockLines, line)
			}
			prompt()
			continue
		}
		if line == "" || strings.HasPrefix(line, "//") {
			prompt()
			continue
		}
		if strings.HasPrefix(line, ":") {
			if !r.command(line, &blockName) {
				return
			}
			prompt()
			continue
		}
		if q, ok := strings.CutPrefix(line, "?-"); ok {
			r.query(q)
			prompt()
			continue
		}
		r.exec(line)
		prompt()
	}
}

func (r *repl) command(line string, blockName *string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ":quit", ":q":
		return false
	case ":help":
		fmt.Fprintln(r.out, "commands: :addblock <name> <<  |  :removeblock <name>  |  :load <name> <file>")
		fmt.Fprintln(r.out, "          :import <pred> <file.csv>")
		fmt.Fprintln(r.out, "          :blocks  :rel <pred>  :branch <from> <to>  :checkout <br>  :branches")
		fmt.Fprintln(r.out, "          :solve  :check [file]  :stats  :quit")
		fmt.Fprintln(r.out, "queries:  ?- _(x) <- p(x).        exec:  +p(\"a\").")
	case ":stats":
		if r.reg == nil {
			fmt.Fprintln(r.out, "profiling is off — start lb with -stats or -trace")
			break
		}
		snap := r.reg.Snapshot()
		fmt.Fprint(r.out, logicblox.FormatRuleTable(snap))
		fmt.Fprint(r.out, logicblox.FormatCounters(snap))
	case ":check":
		if len(fields) > 2 {
			fmt.Fprintln(r.out, "usage: :check [file]")
			break
		}
		src := ""
		if len(fields) == 2 {
			data, err := os.ReadFile(fields[1])
			if err != nil {
				fmt.Fprintln(r.out, "error:", err)
				break
			}
			src = string(data)
		}
		ws := must(r.db.Workspace(r.branch))
		warns, err := ws.CheckProgram(src)
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		for _, w := range warns {
			fmt.Fprintln(r.out, " ", w)
		}
		fmt.Fprintf(r.out, "  (%d warnings)\n", len(warns))
	case ":addblock":
		if len(fields) < 3 || fields[2] != "<<" {
			fmt.Fprintln(r.out, "usage: :addblock <name> <<")
			break
		}
		*blockName = fields[1]
	case ":removeblock":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: :removeblock <name>")
			break
		}
		ws := must(r.db.Workspace(r.branch))
		next, err := ws.RemoveBlock(fields[1])
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		r.commit(next)
		fmt.Fprintln(r.out, "removed", fields[1])
	case ":import":
		if len(fields) != 3 {
			fmt.Fprintln(r.out, "usage: :import <pred> <file.csv>")
			break
		}
		r.importCSV(fields[1], fields[2])
	case ":load":
		if len(fields) != 3 {
			fmt.Fprintln(r.out, "usage: :load <name> <file>")
			break
		}
		src, err := os.ReadFile(fields[2])
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		r.installBlock(fields[1], string(src))
	case ":blocks":
		ws := must(r.db.Workspace(r.branch))
		for _, b := range ws.Blocks() {
			fmt.Fprintln(r.out, " ", b)
		}
	case ":rel":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: :rel <predicate>")
			break
		}
		ws := must(r.db.Workspace(r.branch))
		rel := ws.Relation(fields[1])
		rel.ForEach(func(t logicblox.Tuple) bool {
			fmt.Fprintln(r.out, " ", t)
			return true
		})
		fmt.Fprintf(r.out, "  (%d tuples)\n", rel.Len())
	case ":branch":
		if len(fields) != 3 {
			fmt.Fprintln(r.out, "usage: :branch <from> <to>")
			break
		}
		if err := r.db.Branch(fields[1], fields[2]); err != nil {
			fmt.Fprintln(r.out, "error:", err)
		}
	case ":checkout":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: :checkout <branch>")
			break
		}
		if _, err := r.db.Workspace(fields[1]); err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		r.branch = fields[1]
	case ":branches":
		for _, b := range r.db.Branches() {
			marker := "  "
			if b == r.branch {
				marker = "* "
			}
			fmt.Fprintln(r.out, marker+b)
		}
	case ":save":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: :save <file>")
			break
		}
		// Atomic and fsynced: a crash mid-save leaves the previous file
		// intact, and the framed header lets :open detect corruption.
		if err := durable.WriteDatabaseSnapshot(durable.OS, fields[1], r.db); err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		fmt.Fprintln(r.out, "saved", fields[1])
	case ":open":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: :open <file>")
			break
		}
		payload, err := durable.ReadSnapshotFile(durable.OS, fields[1])
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		db, err := durable.LoadSnapshotPayload(payload)
		if err != nil {
			if errors.Is(err, logicblox.ErrCorruptSnapshot) {
				fmt.Fprintf(r.out, "error: %s is corrupt (%v)\n", fields[1], err)
			} else {
				fmt.Fprintln(r.out, "error:", err)
			}
			break
		}
		r.db = db
		r.branch = logicblox.DefaultBranch
		fmt.Fprintln(r.out, "opened", fields[1])
	case ":history":
		lo, hi := r.db.RetainedVersions()
		for i := lo; i < hi; i++ {
			v, err := r.db.VersionAt(i)
			if err != nil {
				continue
			}
			fmt.Fprintf(r.out, "  %3d  branch=%-12s version=%d blocks=%d\n",
				i, v.Branch, v.Workspace.Version(), len(v.Workspace.Blocks()))
		}
	case ":branchat":
		if len(fields) != 3 {
			fmt.Fprintln(r.out, "usage: :branchat <version> <name>")
			break
		}
		i, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		if err := r.db.BranchAt(i, fields[2]); err != nil {
			fmt.Fprintln(r.out, "error:", err)
		}
	case ":solve":
		ws := must(r.db.Workspace(r.branch))
		next, sol, err := ws.Solve()
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			break
		}
		r.commit(next)
		fmt.Fprintf(r.out, "solved: objective = %g\n", sol.Objective)
	default:
		fmt.Fprintln(r.out, "unknown command", fields[0], "(:help)")
	}
	return true
}

func (r *repl) installBlock(name, src string) {
	r.beginTx()
	defer r.profile()
	ws := must(r.db.Workspace(r.branch))
	next, err := ws.AddBlock(name, src)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	r.commit(next)
	fmt.Fprintln(r.out, "installed block", name)
}

func (r *repl) exec(src string) {
	r.beginTx()
	defer r.profile()
	ws := must(r.db.Workspace(r.branch))
	res, err := ws.Exec(src)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	r.commit(res.Workspace)
	n := 0
	for _, d := range res.BaseDeltas {
		n += len(d.Ins) + len(d.Del)
	}
	fmt.Fprintf(r.out, "ok (%d changes)\n", n)
}

func (r *repl) query(src string) {
	r.beginTx()
	defer r.profile()
	ws := must(r.db.Workspace(r.branch))
	// Pull-based: rows print as the join iterators produce them, so a
	// huge answer starts appearing immediately and is never buffered.
	cur, err := ws.QueryStream(context.Background(), src)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	n := 0
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		fmt.Fprintln(r.out, " ", row)
		n++
	}
	err = cur.Err()
	cur.Close()
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	fmt.Fprintf(r.out, "  (%d rows)\n", n)
}

// importCSV bulk-loads a base predicate from a CSV file. Each cell is
// parsed as an int, then a float, then kept as a string.
func (r *repl) importCSV(pred, path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	var tuples []logicblox.Tuple
	for _, rec := range records {
		t := make(logicblox.Tuple, len(rec))
		for i, cell := range rec {
			if n, err := strconv.ParseInt(cell, 10, 64); err == nil {
				t[i] = logicblox.Int(n)
			} else if x, err := strconv.ParseFloat(cell, 64); err == nil {
				t[i] = logicblox.Float(x)
			} else {
				t[i] = logicblox.String(cell)
			}
		}
		tuples = append(tuples, t)
	}
	ws := must(r.db.Workspace(r.branch))
	next, err := ws.Load(pred, tuples)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	r.commit(next)
	fmt.Fprintf(r.out, "imported %d rows into %s\n", len(tuples), pred)
}

func (r *repl) commit(ws *logicblox.Workspace) {
	if err := r.db.Commit(r.branch, ws); err != nil {
		fmt.Fprintln(r.out, "commit error:", err)
	}
}

func must(ws *logicblox.Workspace, err error) *logicblox.Workspace {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fatal:", err)
		os.Exit(1)
	}
	return ws
}
