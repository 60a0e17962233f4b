// Package check is the pluggable checker framework: the layer that
// turns the bootstrapped alias analysis into a static-analysis tool.
// The paper's whole point is that a scalable flow- and context-sensitive
// alias analysis unlocks *client* analyses (its motivating application
// is lockset-based race detection for drivers); this package gives those
// clients one shape.
//
// A Pass declares its name, the pointer/variable footprint it needs
// (lock pointers, dereferenced pointers, freed pointers), and a Run
// method that receives a demand-driven Core handle. The handle answers
// queries through the context-first core API: clusters solve lazily on
// first touch (single-flight EnsureCluster, warmed by the persistent
// result cache, so a cache-warm lint run is near-free), and a pass
// deadline that expires mid-solve degrades answers to the sound
// flow-insensitive fallback instead of blocking — the pass finishes and
// reports `incomplete`, never stalling the other passes.
//
// Every diagnostic carries a stable fingerprint — a hash of symbolic
// content (rule, function, statement text, subject), never raw
// locations — used for baseline suppression: a SARIF file from a
// previous run hides known findings, which makes the tool adoptable on
// a codebase with existing debt.
package check

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// Severity classifies a diagnostic; the names are SARIF levels.
type Severity uint8

const (
	// SeverityNote is informational.
	SeverityNote Severity = iota
	// SeverityWarning is a possible bug (may-analysis verdict).
	SeverityWarning
	// SeverityError is a definite (or definitely-reachable) bug.
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	}
	return "note"
}

// Related is a secondary location attached to a diagnostic — a witness:
// the other access of a race, the first free of a double free, the
// conflicting acquisition of a lock-order inversion.
type Related struct {
	Loc     ir.Loc
	Message string
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pass and Rule identify the check ("lockset"/"race",
	// "uaf"/"double-free", ...). Run fills Pass.
	Pass string
	Rule string

	Severity Severity
	// Loc anchors the finding; Func is the enclosing function's name.
	Loc  ir.Loc
	Func string
	// Subject names what the finding is about (the racy object, the
	// freed pointer, the lock pair) — part of the fingerprint, so two
	// findings at the same statement about different objects stay
	// distinct.
	Subject string
	Message string
	Related []Related

	// Fingerprint is the stable identity used for baseline suppression.
	// Passes may preset it (nullcheck uses Warning.Fingerprint so batch
	// and served output agree); Run computes it when empty.
	Fingerprint string

	// Snapshot is the serving snapshot that produced the finding
	// (stamped by aliasd's /check endpoint; zero in batch runs).
	Snapshot int64
}

// fingerprint hashes the diagnostic's symbolic content: rule, enclosing
// function, statement text and subject, plus each witness's statement
// text. Raw locations are excluded on purpose — fingerprints survive
// renumbering, reruns and reloads of the same source.
func (d *Diagnostic) fingerprint(prog *ir.Program) string {
	h := fnv.New64a()
	parts := []string{d.Pass, d.Rule, d.Func, prog.StmtString(d.Loc), d.Subject}
	for _, r := range d.Related {
		parts = append(parts, prog.StmtString(r.Loc))
	}
	for _, part := range parts {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Pass is one pluggable checker.
type Pass interface {
	// Name is the pass's stable identifier (flag values, /check
	// requests, SARIF rule prefixes).
	Name() string
	// Doc is a one-line description (SARIF rule metadata, -passes help).
	Doc() string
	// Footprint returns the pass's demand predicate: the variables whose
	// clusters the pass needs precise answers for. The driver unions the
	// selected passes' footprints into core.Config.Demand, so unrelated
	// clusters are never solved — the Lazy Pointer Analysis shape.
	Footprint(prog *ir.Program) func(*ir.Var) bool
	// Run executes the pass against the demand-driven handle. ctx
	// carries the per-pass deadline; queries degrade (soundly) rather
	// than block when it expires.
	Run(ctx context.Context, c *Core) ([]Diagnostic, error)
}

// All returns a fresh instance of every registered pass, in canonical
// order.
func All() []Pass {
	return []Pass{
		&LocksetPass{},
		&DeadlockPass{},
		&NullcheckPass{},
		&UAFPass{},
	}
}

// Lookup resolves a pass name ("lockset", "deadlock", "nullcheck",
// "uaf") to a fresh pass instance.
func Lookup(name string) (Pass, bool) {
	for _, p := range All() {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// Select resolves a comma-separated pass list ("all" or empty = every
// pass) to pass instances.
func Select(names string) ([]Pass, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	var out []Pass
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		p, ok := Lookup(name)
		if !ok {
			return nil, fmt.Errorf("check: unknown pass %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// DemandFor unions the passes' footprints into one demand predicate for
// core.Config.Demand: only clusters containing at least one variable
// some pass cares about are selected (and, in Lazy mode, solvable).
func DemandFor(prog *ir.Program, passes []Pass) func(*ir.Var) bool {
	preds := make([]func(*ir.Var) bool, len(passes))
	for i, p := range passes {
		preds[i] = p.Footprint(prog)
	}
	return func(v *ir.Var) bool {
		for _, pred := range preds {
			if pred(v) {
				return true
			}
		}
		return false
	}
}

// Core is the demand-driven query handle a pass runs against. Every
// method answers through the context-first core API: cold clusters solve
// on first touch (bounded by the pass deadline in ctx), warm ones import
// from the result cache, and an expired deadline degrades answers to the
// sound flow-insensitive fallback.
type Core struct {
	a    *core.Analysis
	prog *ir.Program
}

// NewCore wraps an analysis for pass consumption. Exported for drivers
// that run a single pass outside Run (tests, ad-hoc tools).
func NewCore(a *core.Analysis) *Core {
	return &Core{a: a, prog: a.Prog}
}

// Analysis exposes the underlying analysis (cluster metadata, health).
func (c *Core) Analysis() *core.Analysis { return c.a }

// Prog returns the program under analysis.
func (c *Core) Prog() *ir.Program { return c.prog }

// PointsTo returns the objects p may reference at loc.
func (c *Core) PointsTo(ctx context.Context, p ir.VarID, loc ir.Loc) ([]ir.VarID, bool) {
	return c.a.PointsToContext(ctx, p, loc)
}

// MayAlias reports whether p and q may alias at loc.
func (c *Core) MayAlias(ctx context.Context, p, q ir.VarID, loc ir.Loc) (bool, bool) {
	return c.a.MayAliasContext(ctx, p, q, loc)
}

// MustAlias reports whether p and q must alias at loc.
func (c *Core) MustAlias(ctx context.Context, p, q ir.VarID, loc ir.Loc) (bool, bool) {
	return c.a.MustAliasContext(ctx, p, q, loc)
}

// DerefState resolves what a dereference of p at loc may observe.
func (c *Core) DerefState(ctx context.Context, p ir.VarID, loc ir.Loc) (objs []ir.VarID, mayNull, mayUninit, precise bool) {
	return c.a.DerefStateContext(ctx, p, loc)
}

// Reachable lists the functions reachable from the program entry.
func (c *Core) Reachable() []ir.FuncID {
	return c.a.CallGraph.Reachable(c.prog.Entry)
}

// funcName names the function enclosing loc.
func (c *Core) funcName(loc ir.Loc) string {
	return c.prog.Func(c.prog.Node(loc).Fn).Name
}

// Options configures a Run.
type Options struct {
	// Passes to run; nil means All().
	Passes []Pass
	// PassTimeout is the per-pass deadline (0 = none). A pass whose
	// deadline expires mid-solve degrades its remaining queries through
	// the scheduler's ladder and reports Incomplete — it never blocks
	// the other passes.
	PassTimeout time.Duration
	// Baseline is a set of fingerprints to suppress (from a previous
	// run's SARIF; see ReadBaseline).
	Baseline map[string]bool
	// Source names the analyzed artifact in reports (SARIF artifact
	// URI); empty means "program.cpl".
	Source string
	// Snapshot stamps every diagnostic with a serving snapshot id
	// (aliasd); zero for batch runs.
	Snapshot int64

	Tracer  *obs.Tracer
	Metrics *obs.Metrics
}

// Result is one pass's outcome.
type Result struct {
	Pass string
	Doc  string
	// Diags are the unsuppressed findings, canonically sorted and
	// fingerprinted.
	Diags []Diagnostic
	// Suppressed counts baseline-hidden findings.
	Suppressed int
	// Incomplete reports the pass deadline expired: answers may have
	// degraded to flow-insensitive precision, so findings can be missing
	// (never spurious — degradation widens may-answers and withholds
	// must-answers).
	Incomplete bool
	Err        error
	Elapsed    time.Duration
}

// Report is a whole checker run.
type Report struct {
	Source   string
	Snapshot int64
	Results  []Result
}

// Diagnostics flattens the report's findings in pass order.
func (r *Report) Diagnostics() []Diagnostic {
	var out []Diagnostic
	for _, res := range r.Results {
		out = append(out, res.Diags...)
	}
	return out
}

// Fingerprints lists every finding's fingerprint, sorted.
func (r *Report) Fingerprints() []string {
	var out []string
	for _, d := range r.Diagnostics() {
		out = append(out, d.Fingerprint)
	}
	sort.Strings(out)
	return out
}

// Run executes the passes in parallel against one analysis, each on its
// own trace lane with its own deadline, and returns the combined report
// with results in the requested pass order.
func Run(ctx context.Context, a *core.Analysis, opts Options) *Report {
	if ctx == nil {
		ctx = context.Background()
	}
	passes := opts.Passes
	if passes == nil {
		passes = All()
	}
	if opts.Source == "" {
		opts.Source = "program.cpl"
	}
	c := NewCore(a)
	m := opts.Metrics
	rep := &Report{Source: opts.Source, Snapshot: opts.Snapshot, Results: make([]Result, len(passes))}

	var wg sync.WaitGroup
	for i, p := range passes {
		wg.Add(1)
		go func(i int, p Pass) {
			defer wg.Done()
			tid := obs.CheckTID(i)
			opts.Tracer.NameThread(tid, "check-"+p.Name())
			sp := opts.Tracer.Start("check", p.Name(), tid)
			pctx := ctx
			var cancel context.CancelFunc
			if opts.PassTimeout > 0 {
				pctx, cancel = context.WithTimeout(ctx, opts.PassTimeout)
				defer cancel()
			}
			start := time.Now()
			res := Result{Pass: p.Name(), Doc: p.Doc()}
			func() {
				// A buggy pass degrades only itself, like a faulting
				// cluster under the scheduler: the panic becomes the
				// pass's error.
				defer func() {
					if rec := recover(); rec != nil {
						res.Err = fmt.Errorf("check: pass %s panicked: %v", p.Name(), rec)
					}
				}()
				res.Diags, res.Err = p.Run(pctx, c)
			}()
			res.Elapsed = time.Since(start)
			res.Incomplete = pctx.Err() != nil ||
				errors.Is(res.Err, context.DeadlineExceeded) || errors.Is(res.Err, context.Canceled)
			finalize(&res, p.Name(), a.Prog, opts)
			m.Counter("check_pass_runs_total", "Checker pass executions.").Inc()
			m.Counter("check_findings_total", "Checker findings reported (post-baseline).").Add(int64(len(res.Diags)))
			m.Counter("check_suppressed_total", "Checker findings hidden by the baseline.").Add(int64(res.Suppressed))
			if res.Incomplete {
				m.Counter("check_incomplete_total", "Checker passes that out-ran their deadline.").Inc()
			}
			m.Histogram("check_pass_seconds", "Checker pass wall time.", obs.SecondsBuckets).
				Observe(res.Elapsed.Seconds())
			sp.Arg("findings", len(res.Diags)).Arg("incomplete", res.Incomplete).End()
			rep.Results[i] = res
		}(i, p)
	}
	wg.Wait()
	return rep
}

// finalize stamps, fingerprints, sorts, de-collides and baseline-filters
// one pass's findings.
func finalize(res *Result, pass string, prog *ir.Program, opts Options) {
	for i := range res.Diags {
		d := &res.Diags[i]
		d.Pass = pass
		d.Snapshot = opts.Snapshot
		if d.Func == "" {
			d.Func = prog.Func(prog.Node(d.Loc).Fn).Name
		}
		if d.Fingerprint == "" {
			d.Fingerprint = d.fingerprint(prog)
		}
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Fingerprint != b.Fingerprint {
			return a.Fingerprint < b.Fingerprint
		}
		return a.Message < b.Message
	})
	// Identical statements can collide (two `g = 1` in one function);
	// disambiguate deterministically so a baseline never hides a second
	// genuine finding behind the first's fingerprint.
	seen := map[string]int{}
	for i := range res.Diags {
		d := &res.Diags[i]
		seen[d.Fingerprint]++
		if n := seen[d.Fingerprint]; n > 1 {
			d.Fingerprint = fmt.Sprintf("%s-%d", d.Fingerprint, n)
		}
	}
	if len(opts.Baseline) > 0 {
		kept := res.Diags[:0]
		for _, d := range res.Diags {
			if opts.Baseline[d.Fingerprint] {
				res.Suppressed++
				continue
			}
			kept = append(kept, d)
		}
		res.Diags = kept
	}
}

// FormatText renders the report for humans, one finding per line,
// grouped by pass.
func FormatText(rep *Report) string {
	var b strings.Builder
	for _, res := range rep.Results {
		fmt.Fprintf(&b, "pass %s (%s): %d finding(s)", res.Pass, res.Doc, len(res.Diags))
		if res.Suppressed > 0 {
			fmt.Fprintf(&b, ", %d baseline-suppressed", res.Suppressed)
		}
		if res.Incomplete {
			b.WriteString(" [incomplete: deadline expired]")
		}
		if res.Err != nil {
			fmt.Fprintf(&b, " [error: %v]", res.Err)
		}
		b.WriteString("\n")
		for _, d := range res.Diags {
			fmt.Fprintf(&b, "  %s %s L%d (%s): %s [%s]\n",
				d.Severity, d.Rule, d.Loc, d.Func, d.Message, d.Fingerprint)
			for _, r := range d.Related {
				fmt.Fprintf(&b, "    related L%d: %s\n", r.Loc, r.Message)
			}
		}
	}
	return b.String()
}
