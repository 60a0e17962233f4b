// Package lockset implements the application that motivated the paper:
// static data-race detection via lockset computation. It is the
// demand-driven consumer of the bootstrapped alias analysis — "for lockset
// computation used in data race detection, we need to compute must-aliases
// only for lock pointers. Thus we need to consider only clusters having at
// least one lock pointer."
//
// The concurrency model is the usual one for driver-style code: designated
// thread entry functions (by name prefix) run concurrently; locks are
// acquired and released through designated functions taking a lock
// pointer. A must-lockset is propagated through each thread's code
// (intersection at joins, interprocedural via call-site intersection), the
// held lock pointers are resolved to lock *objects* with the
// flow-sensitive must-alias analysis, and two accesses to the same shared
// object race when they come from concurrent threads, at least one writes,
// and their locksets are disjoint.
package lockset

import (
	"fmt"
	"sort"
	"strings"

	"bootstrap/internal/ir"
)

// Config tunes detection.
type Config struct {
	// ThreadPrefix marks thread entry functions (default "thread_").
	ThreadPrefix string
	// AcquireNames and ReleaseNames are the lock-manipulation functions
	// (defaults: acquire/lock and release/unlock).
	AcquireNames []string
	ReleaseNames []string
	// SequentialSelf treats each thread entry as never racing with
	// itself. The default (false) matches reentrant driver entry points,
	// which may run concurrently with themselves.
	SequentialSelf bool
}

func (c *Config) fill() {
	if c.ThreadPrefix == "" {
		c.ThreadPrefix = "thread_"
	}
	if c.AcquireNames == nil {
		c.AcquireNames = []string{"acquire", "lock_acquire", "spin_lock"}
	}
	if c.ReleaseNames == nil {
		c.ReleaseNames = []string{"release", "lock_release", "spin_unlock"}
	}
}

// Access is one shared-memory access with the lock objects definitely held.
type Access struct {
	Loc    ir.Loc
	Var    ir.VarID // the accessed object
	Write  bool
	Thread ir.FuncID // the thread entry this access runs under
	Locks  []ir.VarID
}

// Race is a pair of conflicting accesses with disjoint locksets.
type Race struct {
	Var  ir.VarID
	A, B Access
}

// Format renders the race against the program's symbol table.
func (r Race) Format(p *ir.Program) string {
	return fmt.Sprintf("race on %s: %s at L%d (thread %s, locks %s) vs %s at L%d (thread %s, locks %s)",
		p.VarName(r.Var),
		rw(r.A.Write), r.A.Loc, p.Func(r.A.Thread).Name, lockNames(p, r.A.Locks),
		rw(r.B.Write), r.B.Loc, p.Func(r.B.Thread).Name, lockNames(p, r.B.Locks))
}

func rw(w bool) string {
	if w {
		return "write"
	}
	return "read"
}

func lockNames(p *ir.Program, locks []ir.VarID) string {
	if len(locks) == 0 {
		return "{}"
	}
	names := make([]string, len(locks))
	for i, l := range locks {
		names[i] = p.VarName(l)
	}
	return "{" + strings.Join(names, ",") + "}"
}

// lockSet is a must-set of lock objects; nil means ⊤ (everything held —
// the lattice top used before a node is first reached).
type lockSet map[ir.VarID]bool

func topSet() lockSet { return nil }

func (s lockSet) isTop() bool { return s == nil }

func (s lockSet) clone() lockSet {
	if s == nil {
		return nil
	}
	c := make(lockSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// intersect returns s ∩ t (top is identity).
func intersect(s, t lockSet) lockSet {
	if s.isTop() {
		return t.clone()
	}
	if t.isTop() {
		return s.clone()
	}
	out := lockSet{}
	for k := range s {
		if t[k] {
			out[k] = true
		}
	}
	return out
}

func equalSets(s, t lockSet) bool {
	if s.isTop() || t.isTop() {
		return s.isTop() && t.isTop()
	}
	if len(s) != len(t) {
		return false
	}
	for k := range s {
		if !t[k] {
			return false
		}
	}
	return true
}

// Source is the analysis surface the detector consumes: the program and
// a points-to query for resolving lock pointers to lock objects. The
// checker framework (package check) provides it over its
// deadline-scoped, demand-driven query handle.
type Source interface {
	Program() *ir.Program
	PointsTo(p ir.VarID, loc ir.Loc) ([]ir.VarID, bool)
}

// OrderEdge is one observed lock-order fact: while Held was definitely
// held, the thread acquired Acquired at Loc. The deadlock checker builds
// the lock-order graph from these edges; a cycle is a potential deadlock
// and each edge's Loc is its acquisition witness.
type OrderEdge struct {
	Held, Acquired ir.VarID
	Loc            ir.Loc
	Thread         ir.FuncID
}

// Detector runs lockset-based race detection over a completed analysis.
type Detector struct {
	src  Source
	prog *ir.Program
	cfg  Config

	acquire map[ir.FuncID]bool
	release map[ir.FuncID]bool

	// in[loc] is the must-lockset when control reaches loc.
	in map[ir.Loc]lockSet
	// entrySets[f] is the must-lockset at f's entry (∩ over call sites).
	entrySets map[ir.FuncID]lockSet

	// order accumulates the lock-order edges observed by Detect.
	order []OrderEdge
}

// NewDetectorSource prepares detection over a Source. Only lock pointers
// need precise answers, so the analysis behind it may select just the
// clusters holding one (see LockDemand).
func NewDetectorSource(src Source, cfg Config) *Detector {
	cfg.fill()
	prog := src.Program()
	d := &Detector{
		src: src, prog: prog, cfg: cfg,
		acquire:   map[ir.FuncID]bool{},
		release:   map[ir.FuncID]bool{},
		in:        map[ir.Loc]lockSet{},
		entrySets: map[ir.FuncID]lockSet{},
	}
	for _, name := range cfg.AcquireNames {
		if f, ok := prog.FuncByName[name]; ok {
			d.acquire[f] = true
		}
	}
	for _, name := range cfg.ReleaseNames {
		if f, ok := prog.FuncByName[name]; ok {
			d.release[f] = true
		}
	}
	return d
}

// LockDemand is the demand predicate for core.Config: analyze only
// clusters containing lock pointers.
func LockDemand(v *ir.Var) bool { return v.IsLock }

// Threads returns the thread entry functions.
func (d *Detector) Threads() []ir.FuncID {
	var out []ir.FuncID
	for _, f := range d.prog.Funcs {
		if strings.HasPrefix(f.Name, d.cfg.ThreadPrefix) {
			out = append(out, f.ID)
		}
	}
	return out
}

// resolveLock resolves the lock object a lock-pointer argument must refer
// to at a call site; ok is false when it is not a must-singleton.
func (d *Detector) resolveLock(arg ir.VarID, loc ir.Loc) (ir.VarID, bool) {
	if arg == ir.NoVar {
		return ir.NoVar, false
	}
	objs, precise := d.src.PointsTo(arg, loc)
	if !precise || len(objs) != 1 {
		return ir.NoVar, false
	}
	return objs[0], true
}

// transfer applies the lock effect of the node at loc.
func (d *Detector) transfer(loc ir.Loc, s lockSet) lockSet {
	n := d.prog.Node(loc)
	if n.Stmt.Op != ir.OpCall || n.Stmt.Callee == ir.NoFunc {
		return s
	}
	callee := n.Stmt.Callee
	var arg ir.VarID = ir.NoVar
	if len(n.Stmt.Args) > 0 {
		arg = n.Stmt.Args[0]
	}
	switch {
	case d.acquire[callee]:
		obj, ok := d.resolveLock(arg, loc)
		if !ok {
			return s // unknown lock: must-set unchanged (conservative)
		}
		out := s.clone()
		if out.isTop() {
			out = lockSet{}
		}
		out[obj] = true
		return out
	case d.release[callee]:
		obj, ok := d.resolveLock(arg, loc)
		if !ok {
			// Unknown release may free any lock: drop everything.
			return lockSet{}
		}
		out := s.clone()
		if out.isTop() {
			return lockSet{}
		}
		delete(out, obj)
		return out
	}
	return s
}

// flowFunction runs the must-lockset dataflow over one function's CFG
// starting from the given entry set, updating d.in, and returns the
// locksets observed at each call site of non-special callees (for
// interprocedural propagation).
func (d *Detector) flowFunction(f ir.FuncID, entry lockSet) map[ir.FuncID]lockSet {
	fn := d.prog.Func(f)
	callEntries := map[ir.FuncID]lockSet{}
	d.in[fn.Entry] = intersect(d.in[fn.Entry], entry)
	work := []ir.Loc{fn.Entry}
	for len(work) > 0 {
		loc := work[len(work)-1]
		work = work[:len(work)-1]
		out := d.transfer(loc, d.in[loc])
		n := d.prog.Node(loc)
		if n.Stmt.Op == ir.OpCall && n.Stmt.Callee != ir.NoFunc &&
			!d.acquire[n.Stmt.Callee] && !d.release[n.Stmt.Callee] {
			cur, seen := callEntries[n.Stmt.Callee]
			if !seen {
				cur = topSet()
			}
			callEntries[n.Stmt.Callee] = intersect(cur, d.in[loc])
		}
		for _, s := range n.Succs {
			merged := intersect(d.in[s], out)
			if old, seen := d.in[s]; !seen || !equalSets(old, merged) {
				d.in[s] = merged
				work = append(work, s)
			}
		}
	}
	return callEntries
}

// Detect runs the analysis and reports the races and all shared accesses.
// It also (re)computes the lock-order edges returned by Order.
func (d *Detector) Detect() ([]Race, []Access) {
	prog := d.prog
	var accesses []Access
	d.order = nil
	orderSeen := map[OrderEdge]bool{}
	for _, thread := range d.Threads() {
		// Interprocedural must-lockset propagation: iterate over the
		// functions reachable from this thread to a fixpoint of entry
		// sets.
		d.in = map[ir.Loc]lockSet{}
		entry := map[ir.FuncID]lockSet{thread: lockSet{}}
		for changed := true; changed; {
			changed = false
			funcs := make([]ir.FuncID, 0, len(entry))
			for f := range entry {
				funcs = append(funcs, f)
			}
			sort.Slice(funcs, func(i, j int) bool { return funcs[i] < funcs[j] })
			for _, f := range funcs {
				for callee, ls := range d.flowFunction(f, entry[f]) {
					cur, seen := entry[callee]
					if !seen {
						cur = topSet()
					}
					merged := intersect(cur, ls)
					if !seen || !equalSets(cur, merged) {
						entry[callee] = merged
						changed = true
					}
				}
			}
		}
		// Collect shared accesses and lock-order edges under the computed
		// (converged) locksets — transient fixpoint states are supersets
		// of the final must-sets and would fabricate spurious edges.
		for f := range entry {
			accesses = append(accesses, d.collectAccesses(f, thread)...)
			for _, e := range d.collectOrder(f, thread) {
				if !orderSeen[e] {
					orderSeen[e] = true
					d.order = append(d.order, e)
				}
			}
		}
	}
	sort.Slice(d.order, func(i, j int) bool {
		a, b := d.order[i], d.order[j]
		if a.Held != b.Held {
			return a.Held < b.Held
		}
		if a.Acquired != b.Acquired {
			return a.Acquired < b.Acquired
		}
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		return a.Thread < b.Thread
	})
	sort.Slice(accesses, func(i, j int) bool {
		if accesses[i].Loc != accesses[j].Loc {
			return accesses[i].Loc < accesses[j].Loc
		}
		return accesses[i].Thread < accesses[j].Thread
	})

	var races []Race
	seen := map[string]bool{}
	for i := 0; i < len(accesses); i++ {
		for j := i; j < len(accesses); j++ {
			a, b := accesses[i], accesses[j]
			if i == j && (a.Thread != b.Thread || d.cfg.SequentialSelf) {
				continue
			}
			if a.Var != b.Var || (!a.Write && !b.Write) {
				continue
			}
			if a.Thread == b.Thread && d.cfg.SequentialSelf {
				continue
			}
			if locksIntersect(a.Locks, b.Locks) {
				continue
			}
			key := fmt.Sprintf("%d|%d|%d|%d|%d", a.Var, a.Loc, b.Loc, a.Thread, b.Thread)
			if seen[key] {
				continue
			}
			seen[key] = true
			races = append(races, Race{Var: a.Var, A: a, B: b})
		}
	}
	_ = prog
	return races, accesses
}

// Order returns the lock-order edges observed by the last Detect call,
// canonically sorted: for every acquisition site reached with a
// non-empty must-lockset, one edge per (held, acquired) lock-object
// pair. Valid only after Detect.
func (d *Detector) Order() []OrderEdge { return d.order }

// collectOrder lists f's lock-order edges under thread: at every reached
// acquire site whose lock resolves to a must-singleton object, each
// definitely-held lock precedes the acquired one.
func (d *Detector) collectOrder(f, thread ir.FuncID) []OrderEdge {
	fn := d.prog.Func(f)
	var out []OrderEdge
	for _, loc := range fn.Nodes {
		held, reached := d.in[loc]
		if !reached || held.isTop() || len(held) == 0 {
			continue
		}
		st := d.prog.Node(loc).Stmt
		if st.Op != ir.OpCall || st.Callee == ir.NoFunc || !d.acquire[st.Callee] {
			continue
		}
		var arg ir.VarID = ir.NoVar
		if len(st.Args) > 0 {
			arg = st.Args[0]
		}
		obj, ok := d.resolveLock(arg, loc)
		if !ok {
			continue
		}
		hs := make([]ir.VarID, 0, len(held))
		for h := range held {
			hs = append(hs, h)
		}
		sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
		for _, h := range hs {
			if h != obj {
				out = append(out, OrderEdge{Held: h, Acquired: obj, Loc: loc, Thread: thread})
			}
		}
	}
	return out
}

// collectAccesses lists the shared-object accesses of f under thread.
func (d *Detector) collectAccesses(f, thread ir.FuncID) []Access {
	prog := d.prog
	fn := prog.Func(f)
	var out []Access
	shared := func(v ir.VarID) bool {
		if v == ir.NoVar {
			return false
		}
		vr := prog.Var(v)
		if vr.IsLock {
			return false
		}
		return vr.Kind == ir.KindGlobal || vr.Kind == ir.KindHeap
	}
	locks := func(loc ir.Loc) []ir.VarID {
		s := d.in[loc]
		if s.isTop() {
			return nil
		}
		var ls []ir.VarID
		for l := range s {
			ls = append(ls, l)
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		return ls
	}
	for _, loc := range fn.Nodes {
		if _, reached := d.in[loc]; !reached {
			continue
		}
		st := prog.Node(loc).Stmt
		add := func(v ir.VarID, write bool) {
			if shared(v) {
				out = append(out, Access{Loc: loc, Var: v, Write: write, Thread: thread, Locks: locks(loc)})
			}
		}
		switch st.Op {
		case ir.OpCopy, ir.OpLoad, ir.OpNullify:
			add(st.Dst, true)
			if st.Op != ir.OpNullify {
				add(st.Src, false)
			}
		case ir.OpAddr:
			add(st.Dst, true)
		case ir.OpStore:
			// The written objects are whatever the pointer may reference.
			objs, _ := d.src.PointsTo(st.Dst, loc)
			for _, o := range objs {
				add(o, true)
			}
			add(st.Src, false)
		case ir.OpTouch:
			add(st.Dst, true)
			if st.Src != ir.NoVar {
				objs, _ := d.src.PointsTo(st.Src, loc)
				for _, o := range objs {
					add(o, true)
				}
			}
		}
	}
	return out
}

func locksIntersect(a, b []ir.VarID) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}
