package serve

// POST /edit: incremental streaming mode. An edit batch mutates the live
// program in place — statement replaced/deleted/inserted, variable added
// — and the server re-solves only the clusters the batch dirties
// (core.ApplyEdit), publishing the result as a new snapshot exactly like
// /reload does: atomically, all-or-nothing, with in-flight queries
// draining on the snapshot they pinned.
//
// Concurrent edits coalesce: every request queues its resolved batch,
// and whichever request first takes the reload lock becomes the leader —
// it drains the whole queue, applies the batches in arrival order
// (chained ApplyEdit calls), and publishes ONE snapshot that includes
// them all. Followers just wait; their responses report their own
// batch's incremental stats plus coalesced:true. Edit addressing
// survives the chain because the IR is id-stable under edits: locations
// are tombstoned, never renumbered, and variable ids only grow.

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
)

// editWaiter is one queued edit batch and its eventual outcome.
type editWaiter struct {
	edits []ir.Edit
	ddl   time.Duration

	done      chan struct{}
	resp      EditResponse
	dirtyIDs  []int // the batch's dirty clusters, in its generation's ids
	err       error
	errStatus int
}

// handleEdit decodes, resolves and enqueues one edit batch, then pumps
// the queue (becoming leader if no other request holds the reload lock)
// and reports this batch's outcome.
func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "draining"})
		return
	}
	sn := s.snap.Load()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "no program loaded"})
		return
	}
	var req EditRequest
	if err := decodeBody(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if len(req.Edits) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty edit batch"})
		return
	}
	// Resolution runs against the pinned snapshot; ids stay valid even if
	// a coalescing leader applies other batches first (id-stable IR).
	edits, err := resolveEdits(sn.Prog, req.Edits)
	if err != nil {
		s.mEditFail.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	ddl := s.cfg.EditTimeout
	if req.TimeoutMS > 0 {
		if o := time.Duration(req.TimeoutMS) * time.Millisecond; o < ddl {
			ddl = o
		}
	}
	wtr := &editWaiter{edits: edits, ddl: ddl, done: make(chan struct{})}
	s.editMu.Lock()
	s.editQ = append(s.editQ, wtr)
	s.editMu.Unlock()
	s.pumpEdits()
	<-wtr.done
	if wtr.err != nil {
		s.mEditFail.Add(1)
		writeJSON(w, wtr.errStatus, ErrorResponse{Error: wtr.err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, wtr.resp)
}

// pumpEdits drains the edit queue under the reload lock. Exactly one
// caller at a time gets the lock (the leader); by the time a blocked
// caller acquires it, its own batch may already be done — the drain loop
// then finds an empty queue and returns immediately.
func (s *Server) pumpEdits() {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	for {
		s.editMu.Lock()
		q := s.editQ
		s.editQ = nil
		s.editMu.Unlock()
		if len(q) == 0 {
			return
		}
		s.processEdits(q)
	}
}

// processEdits applies the queued batches in arrival order against the
// current snapshot and publishes one successor snapshot for the whole
// group. Caller holds reloadMu.
func (s *Server) processEdits(q []*editWaiter) {
	old := s.snap.Load()
	a := old.A
	applied := 0
	coalesced := len(q) > 1
	for _, wtr := range q {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), wtr.ddl)
		a2, rep, err := core.ApplyEditContext(ctx, a, wtr.edits)
		cancel()
		if err != nil {
			// A bad batch rejects alone; earlier batches in the group (and
			// the analysis chain) are unaffected.
			wtr.err = fmt.Errorf("edit rejected: %w", err)
			wtr.errStatus = http.StatusUnprocessableEntity
			close(wtr.done)
			continue
		}
		s.invalidateQueries(a2, rep)
		a = a2
		applied++
		wtr.dirtyIDs = rep.DirtyIDs
		wtr.resp = EditResponse{
			Applied:   len(wtr.edits),
			Coalesced: coalesced,
			Clusters:  rep.Clusters,
			Dirty:     rep.Dirty,
			Reused:    rep.Reused,
			Resolved:  rep.Resolved,
			FellBack:  rep.FellBack,
			Reason:    rep.Reason,
			ElapsedUS: time.Since(start).Microseconds(),
		}
		s.mEdits.Add(1)
		if coalesced {
			s.mCoalesced.Add(1)
		}
		if rep.FellBack {
			s.mEditFellTo.Add(1)
		}
		s.hEdit.Observe(time.Since(start).Seconds())
	}
	if applied == 0 {
		return // every batch was rejected; old snapshot keeps serving
	}
	sn := &Snapshot{
		ID:        old.ID + 1,
		Desc:      old.Desc,
		Prog:      a.Prog,
		A:         a,
		checkRuns: map[string]*checkRun{},
	}
	s.snap.Store(sn)
	s.mReloads.Add(1)
	for _, wtr := range q {
		if wtr.err != nil {
			continue // already closed
		}
		wtr.resp.Snapshot = sn.ID
		close(wtr.done)
	}
	// Stream the outcome: one snapshot event for the group, then the
	// final generation's dirty clusters with their re-solve status.
	var lastResp EditResponse
	var lastDirty []int
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].err == nil {
			lastResp = q[i].resp
			lastDirty = q[i].dirtyIDs
			break
		}
	}
	s.publishEvent(StreamEvent{
		Type:     "snapshot",
		Snapshot: sn.ID,
		Clusters: lastResp.Clusters,
		Dirty:    lastResp.Dirty,
		Reused:   lastResp.Reused,
		FellBack: lastResp.FellBack,
	})
	s.publishClusterEvents(sn, lastDirty)
}

// editStreamClusterCap bounds per-edit cluster events: they are a
// progress signal, not a dump.
const editStreamClusterCap = 256

// publishClusterEvents emits one event per dirty cluster of the newest
// generation, with its solve status under the published snapshot
// ("resolved" for eagerly re-solved clusters, "pending" for lazy ones
// that re-solve on first query).
func (s *Server) publishClusterEvents(sn *Snapshot, dirty []int) {
	if len(dirty) > editStreamClusterCap {
		dirty = dirty[:editStreamClusterCap]
	}
	for _, id := range dirty {
		status := "pending"
		if sn.A.ClusterSolved(id) {
			status = "resolved"
		}
		s.publishEvent(StreamEvent{
			Type: "cluster", Snapshot: sn.ID, Cluster: id, Status: status,
		})
	}
}

// resolveEdits maps the request's symbolic edit specs to ir.Edits in the
// program's id space.
func resolveEdits(prog *ir.Program, specs []EditSpec) ([]ir.Edit, error) {
	edits := make([]ir.Edit, 0, len(specs))
	for i, sp := range specs {
		e, err := resolveEdit(prog, sp)
		if err != nil {
			return nil, fmt.Errorf("edit %d: %w", i, err)
		}
		edits = append(edits, e)
	}
	return edits, nil
}

func resolveEdit(prog *ir.Program, sp EditSpec) (ir.Edit, error) {
	switch sp.Action {
	case "replace", "insert":
		st, err := resolveStmt(prog, sp)
		if err != nil {
			return ir.Edit{}, err
		}
		kind := ir.EditReplaceStmt
		if sp.Action == "insert" {
			kind = ir.EditInsertAfter
		}
		return ir.Edit{Kind: kind, Loc: ir.Loc(sp.Loc), Stmt: st}, nil
	case "delete":
		return ir.Edit{Kind: ir.EditDeleteStmt, Loc: ir.Loc(sp.Loc)}, nil
	case "addvar":
		if sp.Name == "" {
			return ir.Edit{}, fmt.Errorf("addvar: missing name")
		}
		e := ir.Edit{Kind: ir.EditAddVar, Name: sp.Name, Var: ir.KindGlobal, Fn: ir.NoFunc}
		if sp.Kind == "local" {
			fid, ok := prog.FuncByName[sp.Fn]
			if !ok {
				return ir.Edit{}, fmt.Errorf("addvar %q: unknown function %q", sp.Name, sp.Fn)
			}
			e.Var, e.Fn = ir.KindLocal, fid
		}
		return e, nil
	default:
		return ir.Edit{}, fmt.Errorf("unknown action %q", sp.Action)
	}
}

var specOps = map[string]ir.Op{
	"copy":       ir.OpCopy,
	"addr":       ir.OpAddr,
	"load":       ir.OpLoad,
	"store":      ir.OpStore,
	"nullify":    ir.OpNullify,
	"assume_eq":  ir.OpAssumeEq,
	"assume_neq": ir.OpAssumeNeq,
}

func resolveStmt(prog *ir.Program, sp EditSpec) (ir.Stmt, error) {
	op, ok := specOps[sp.Op]
	if !ok {
		return ir.Stmt{}, fmt.Errorf("unknown op %q", sp.Op)
	}
	st := ir.Stmt{Op: op, Dst: ir.NoVar, Src: ir.NoVar, Callee: ir.NoFunc, FPtr: ir.NoVar}
	dst, ok := prog.VarByName[sp.Dst]
	if !ok {
		return ir.Stmt{}, fmt.Errorf("unknown variable %q", sp.Dst)
	}
	st.Dst = dst
	if op != ir.OpNullify {
		src, ok := prog.VarByName[sp.Src]
		if !ok {
			return ir.Stmt{}, fmt.Errorf("unknown variable %q", sp.Src)
		}
		st.Src = src
	}
	return st, nil
}
