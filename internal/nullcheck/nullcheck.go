// Package nullcheck is a second client application of the bootstrapped
// analysis (beside lockset): a flow-sensitive null/dangling-dereference
// checker. The paper motivates the framework with static error detection
// generally; this checker exercises exactly the properties the FSCS
// analysis adds over Andersen's:
//
//   - flow sensitivity: `p = &a; p = null; *p = x` warns, while
//     `p = null; p = &a; *p = x` does not;
//   - free() modeling: a dereference after `free(p)` (lowered to
//     p = null) warns as a use-after-free;
//   - path sensitivity: a dereference guarded by `if (p != q)` where p
//     and q must be equal is unreachable and not reported.
//
// A dereference site is any load, store, or write-through touch. The
// checker queries the value set of the dereferenced pointer just before
// the site: a possible-null source yields a MayBeNull warning, a
// definitely-null-or-uninitialized set yields the stronger DefiniteNull.
package nullcheck

import (
	"fmt"
	"hash/fnv"
	"sort"

	"bootstrap/internal/ir"
)

// Severity classifies a warning.
type Severity uint8

// Warning severities.
const (
	// MayBeNull: some path reaches the dereference with a null pointer.
	MayBeNull Severity = iota
	// DefiniteNull: no path reaches the dereference with a valid object
	// (every source is null or uninitialized).
	DefiniteNull
)

func (s Severity) String() string {
	if s == DefiniteNull {
		return "definite"
	}
	return "may"
}

// Warning is one suspicious dereference.
type Warning struct {
	Loc      ir.Loc
	Ptr      ir.VarID
	Severity Severity
	// Uninit distinguishes an uninitialized-pointer dereference from a
	// null one in DefiniteNull reports.
	Uninit bool
}

// Format renders the warning against a program's symbol table.
func (w Warning) Format(p *ir.Program) string {
	fn := p.Func(p.Node(w.Loc).Fn).Name
	kind := "null"
	if w.Uninit {
		kind = "uninitialized"
	}
	return fmt.Sprintf("L%d (%s): %s dereference of possibly-%s pointer %s",
		w.Loc, fn, w.Severity, kind, p.VarName(w.Ptr))
}

// Fingerprint is the warning's stable identity: a hash of symbolic
// content only (enclosing function, statement text, pointer name,
// severity) — never raw locations — so the same warning keeps the same
// fingerprint across runs, cache-warm reruns, and snapshot reloads of
// the same source. Batch (aliaslint) and served (aliasd /check) output
// agree byte-for-byte on it.
func (w Warning) Fingerprint(p *ir.Program) string {
	h := fnv.New64a()
	for _, part := range []string{
		"null-deref",
		p.Func(p.Node(w.Loc).Fn).Name,
		p.StmtString(w.Loc),
		p.VarName(w.Ptr),
		w.Severity.String(),
		fmt.Sprint(w.Uninit),
	} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SortWarnings orders warnings canonically: by location, then pointer,
// then severity (stronger last), then the uninit flag. CheckSource and
// every framework consumer use this exported ordering, so two runs over
// the same snapshot render byte-identical reports.
func SortWarnings(ws []Warning) {
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		if a.Ptr != b.Ptr {
			return a.Ptr < b.Ptr
		}
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		return !a.Uninit && b.Uninit
	})
}

// Source is the analysis surface the checker consumes. The checker
// framework (package check) provides it over its deadline-scoped,
// demand-driven query handle.
type Source interface {
	Program() *ir.Program
	ReachableFuncs() []ir.FuncID
	DerefState(p ir.VarID, loc ir.Loc) (objs []ir.VarID, mayNull, mayUninit, precise bool)
}

// CheckSource scans every dereference site reachable from the entry
// function and reports suspicious ones, in SortWarnings order.
func CheckSource(src Source) []Warning {
	prog := src.Program()
	reachable := map[ir.FuncID]bool{}
	for _, f := range src.ReachableFuncs() {
		reachable[f] = true
	}
	var out []Warning
	for _, n := range prog.Nodes {
		if !reachable[n.Fn] {
			continue
		}
		var ptr ir.VarID = ir.NoVar
		switch n.Stmt.Op {
		case ir.OpLoad:
			ptr = n.Stmt.Src
		case ir.OpStore:
			ptr = n.Stmt.Dst
		case ir.OpTouch:
			if n.Stmt.Src != ir.NoVar {
				ptr = n.Stmt.Src // write-through of a non-pointer value
			}
		}
		if ptr == ir.NoVar {
			continue
		}
		objs, mayNull, mayUninit, precise := src.DerefState(ptr, n.Loc)
		switch {
		case precise && (mayNull || mayUninit):
			w := Warning{Loc: n.Loc, Ptr: ptr, Severity: MayBeNull, Uninit: !mayNull && mayUninit}
			if len(objs) == 0 {
				w.Severity = DefiniteNull
			}
			out = append(out, w)
		case !precise && len(objs) == 0:
			// Even the flow-insensitive over-approximation found no
			// object this pointer could reference: every dereference is
			// of a null or never-assigned pointer.
			out = append(out, Warning{Loc: n.Loc, Ptr: ptr, Severity: DefiniteNull, Uninit: true})
		default:
			// Imprecise with candidates: stay silent (favor low noise).
		}
	}
	SortWarnings(out)
	return out
}
