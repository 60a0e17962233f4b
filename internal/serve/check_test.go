package serve

import (
	"context"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/synth"
)

// TestCheckEndpoint: POST /v1/check runs a pass against the live snapshot,
// stamps findings with the snapshot id, and produces exactly the batch
// checker's fingerprints for the same source.
func TestCheckEndpoint(t *testing.T) {
	src, bugs := synth.LockHeavy(synth.LockHeavyWorkloads()[0].Cfg)
	s := newTestServer(t, src, nil)

	served := map[string][]CheckFinding{}
	for _, pass := range []string{"lockset", "deadlock", "nullcheck", "uaf"} {
		var resp CheckResponse
		// The first request may out-deadline while footprint clusters
		// solve; retry until the memoized run lands.
		deadline := time.Now().Add(30 * time.Second)
		for {
			code := do(t, s, "POST", "/v1/check", `{"pass":"`+pass+`"}`, &resp)
			if code != http.StatusOK {
				t.Fatalf("/v1/check %s: status %d", pass, code)
			}
			if resp.Ready {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("/v1/check %s: never became ready", pass)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if resp.Pass != pass {
			t.Errorf("pass echo = %q, want %q", resp.Pass, pass)
		}
		if resp.Incomplete {
			t.Errorf("pass %s incomplete on a small snapshot", pass)
		}
		for _, f := range resp.Findings {
			if f.Snapshot != s.Snapshot().ID {
				t.Errorf("finding %s stamped with snapshot %d, want %d",
					f.Fingerprint, f.Snapshot, s.Snapshot().ID)
			}
		}
		served[pass] = resp.Findings
	}

	// Seeded-bug recall through the served surface.
	for _, bug := range bugs {
		foundBug := false
		for _, findings := range served {
			for _, f := range findings {
				if f.Rule == bug.Rule && strings.Contains(f.Message, bug.Var) {
					foundBug = true
				}
			}
		}
		if !foundBug {
			t.Errorf("seeded %s on %s not found via /v1/check", bug.Rule, bug.Var)
		}
	}

	// Batch/served agreement: identical fingerprint sets.
	prog, err := frontend.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	passes := check.All()
	cfg := testConfig().Analysis
	cfg.Lazy = true
	cfg.Demand = check.DemandFor(prog, passes)
	a, err := core.AnalyzeProgram(prog, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	rep := check.Run(context.Background(), a, check.Options{Passes: passes})
	batch := rep.Fingerprints()
	var remote []string
	for _, findings := range served {
		for _, f := range findings {
			remote = append(remote, f.Fingerprint)
		}
	}
	sort.Strings(remote)
	if len(batch) != len(remote) {
		t.Fatalf("batch %d findings, served %d", len(batch), len(remote))
	}
	for i := range batch {
		if batch[i] != remote[i] {
			t.Errorf("fingerprint drift at %d: batch %s vs served %s", i, batch[i], remote[i])
		}
	}
}

// TestCheckUnknownPass: a bad pass name is a 400, not a 500, and a
// request to the unversioned path is a 404.
func TestCheckUnknownPass(t *testing.T) {
	src, _ := synth.LockHeavy(synth.LockHeavyWorkloads()[0].Cfg)
	s := newTestServer(t, src, nil)
	if code := do(t, s, "POST", "/v1/check", `{"pass":"nosuch"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	// The checker lives only under /v1: the unversioned path is unrouted.
	if code := do(t, s, "POST", "/check", `{"pass":"lockset"}`, nil); code != http.StatusNotFound {
		t.Fatalf("unversioned /check: status %d, want 404", code)
	}
}

// TestCheckNoSnapshot: /v1/check before any Load is a 503.
func TestCheckNoSnapshot(t *testing.T) {
	s := newTestServer(t, "", nil)
	if code := do(t, s, "POST", "/v1/check", `{"pass":"lockset"}`, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
}

// TestCheckMemoized: the second request for the same (snapshot, pass)
// reuses the finished run — it answers ready immediately even with a
// tiny deadline.
func TestCheckMemoized(t *testing.T) {
	src, _ := synth.LockHeavy(synth.LockHeavyWorkloads()[0].Cfg)
	s := newTestServer(t, src, nil)
	var first CheckResponse
	for {
		do(t, s, "POST", "/v1/check", `{"pass":"uaf"}`, &first)
		if first.Ready {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var second CheckResponse
	if code := do(t, s, "POST", "/v1/check", `{"pass":"uaf","timeout_ms":1}`, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !second.Ready {
		t.Fatal("memoized run should answer within 1ms")
	}
	if len(second.Findings) != len(first.Findings) {
		t.Fatalf("memoized findings drifted: %d vs %d", len(second.Findings), len(first.Findings))
	}
}
