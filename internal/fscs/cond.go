// Package fscs implements the paper's summarization-based flow- and
// context-sensitive (FSCS) may-alias analysis — its core contribution
// (Section 3). The analysis works per cluster (package cluster): function
// summaries capture local maximally complete update sequences (Definitions
// 3–4) as tuples (pointer, source, condition) per Definition 8, are
// computed by a backward CFG walk (Algorithm 4 transfer + Algorithm 5
// interprocedural worklist, iterating the summaries a recursive request
// involves to a fixpoint), and are spliced across functions to answer flow-sensitive
// context-insensitive (Algorithm 3) and fully context-sensitive queries.
// Summary computation and FSCI points-to computation are dovetailed down
// the Steensgaard hierarchy (Algorithm 2) via memoized demand: resolving a
// load or store through a strictly-higher pointer requests that pointer's
// FSCI points-to set, which is itself computed from summaries at the
// smaller depth.
package fscs

import (
	"fmt"
	"sort"
	"strings"

	"bootstrap/internal/ir"
)

// TokKind classifies the value a backward walk is tracking — the "q" of a
// (maximally) complete update sequence from q to p.
type TokKind uint8

// Token kinds.
const (
	TVar     TokKind = iota // the value of a pointer variable
	TAddr                   // the constant &obj (a terminated sequence)
	TNull                   // the null constant (free / explicit null)
	TUnknown                // the walk lost precision; treat conservatively
)

var tokKindNames = [...]string{"var", "addr", "null", "unknown"}

// Token is a tracked value.
type Token struct {
	Kind TokKind
	V    ir.VarID // for TVar and TAddr; NoVar otherwise
}

// VarTok, AddrTok, NullTok and UnknownTok construct tokens.
func VarTok(v ir.VarID) Token  { return Token{Kind: TVar, V: v} }
func AddrTok(o ir.VarID) Token { return Token{Kind: TAddr, V: o} }
func NullTok() Token           { return Token{Kind: TNull, V: ir.NoVar} }
func UnknownTok() Token        { return Token{Kind: TUnknown, V: ir.NoVar} }

// Format renders the token against a program's symbol table.
func (t Token) Format(p *ir.Program) string {
	switch t.Kind {
	case TVar:
		return p.VarName(t.V)
	case TAddr:
		return "&" + p.VarName(t.V)
	case TNull:
		return "null"
	default:
		return "?"
	}
}

func (t Token) String() string {
	if t.Kind == TVar || t.Kind == TAddr {
		return fmt.Sprintf("%s(%d)", tokKindNames[t.Kind], t.V)
	}
	return tokKindNames[t.Kind]
}

// AtomOp is a points-to constraint relation from Definition 8.
type AtomOp uint8

// Constraint relations: at location Loc, X →  Y, X ↛ Y, *X = *Y or
// *X ≠ *Y (same/different target).
const (
	OpPointsTo AtomOp = iota
	OpNotPointsTo
	OpSameTarget
	OpDiffTarget
)

var atomOpNames = [...]string{"->", "-/>", "=*", "!=*"}

// Atom is one points-to constraint `Loc: X op Y`.
type Atom struct {
	Loc ir.Loc
	Op  AtomOp
	X   ir.VarID
	Y   ir.VarID
}

func (a Atom) key() string {
	return fmt.Sprintf("%d:%d:%d:%d", a.Loc, a.Op, a.X, a.Y)
}

// Format renders the atom against a program's symbol table.
func (a Atom) Format(p *ir.Program) string {
	return fmt.Sprintf("L%d: %s %s %s", a.Loc, p.VarName(a.X), atomOpNames[a.Op], p.VarName(a.Y))
}

// Cond is an immutable conjunction of constraint atoms, canonicalized so
// equal conjunctions have equal keys. The empty Cond is `true`.
type Cond struct {
	atoms []Atom
	k     string
}

// TrueCond is the empty (always satisfiable) condition.
func TrueCond() Cond { return Cond{} }

// Atoms returns the conjuncts.
func (c Cond) Atoms() []Atom { return c.atoms }

// IsTrue reports whether c is the empty conjunction.
func (c Cond) IsTrue() bool { return len(c.atoms) == 0 }

// Key is a canonical string identity for deduplication.
func (c Cond) Key() string { return c.k }

// With returns c ∧ a, deduplicating repeated atoms. If the conjunction
// would exceed maxAtoms, the condition is widened to `true` plus a
// poisoned marker is NOT used: widening keeps the tuple sound (a weaker
// condition admits more paths) while bounding the tuple space.
func (c Cond) With(a Atom, maxAtoms int) Cond {
	for _, old := range c.atoms {
		if old == a {
			return c
		}
	}
	if len(c.atoms)+1 > maxAtoms {
		return TrueCond()
	}
	atoms := make([]Atom, 0, len(c.atoms)+1)
	atoms = append(atoms, c.atoms...)
	atoms = append(atoms, a)
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].key() < atoms[j].key() })
	var b strings.Builder
	for i, at := range atoms {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteString(at.key())
	}
	return Cond{atoms: atoms, k: b.String()}
}

// And returns the conjunction of c and d under the same width bound.
func (c Cond) And(d Cond, maxAtoms int) Cond {
	out := c
	for _, a := range d.atoms {
		out = out.With(a, maxAtoms)
		if out.IsTrue() && len(d.atoms) > 0 && len(c.atoms)+len(d.atoms) > maxAtoms {
			return TrueCond()
		}
	}
	return out
}

// Format renders the condition against a program's symbol table.
func (c Cond) Format(p *ir.Program) string {
	if c.IsTrue() {
		return "true"
	}
	parts := make([]string, len(c.atoms))
	for i, a := range c.atoms {
		parts[i] = a.Format(p)
	}
	return strings.Join(parts, " & ")
}

// SumTuple is one summary entry (Definition 8): a maximally complete
// update sequence from Src to the summarized pointer, valid under Cond.
type SumTuple struct {
	Src  Token
	Cond Cond
}

func (s SumTuple) key() string { return s.Src.String() + "|" + s.Cond.Key() }

// Format renders the tuple against a program's symbol table.
func (s SumTuple) Format(p *ir.Program) string {
	return fmt.Sprintf("(src=%s, cond=%s)", s.Src.Format(p), s.Cond.Format(p))
}
