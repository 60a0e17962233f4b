package serve

import (
	"context"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"bootstrap/internal/check"
	"bootstrap/internal/core"
	"bootstrap/internal/frontend"
	"bootstrap/internal/lockset"
	"bootstrap/internal/obs"
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

// locksetMixed has one cluster of lock pointers and clusters of plain
// int pointers the lockset pass never needs; unprot races, counter does
// not.
const locksetMixed = `
	lock mtx;
	lock *lp;
	int counter, unprot, a, b;
	int *cp, *dp;
	void acquire(lock *l) { }
	void release(lock *l) { }
	void thread_open() {
		lp = &mtx;
		acquire(lp);
		counter = 1;
		release(lp);
		unprot = 1;
		cp = &a;
	}
	void thread_ioctl() {
		lp = &mtx;
		acquire(lp);
		counter = 2;
		release(lp);
		unprot = 2;
		dp = &b;
		cp = dp;
	}
	void main() {
		thread_open();
		thread_ioctl();
	}
`

// TestLocksetIsCheckView: /v1/lockset is a view of the memoized lockset
// checker run. It solves only the clusters holding a lock pointer, a
// following /v1/check for the same pass reuses the run, and the race
// list is exactly the findings' messages.
func TestLocksetIsCheckView(t *testing.T) {
	m := obs.NewMetrics()
	s := newTestServer(t, locksetMixed, func(c *Config) { c.Metrics = m })
	runs := m.Counter("check_pass_runs_total", "Checker pass executions.")
	before := runs.Value()

	var lock LocksetResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := do(t, s, "POST", "/v1/lockset", `{}`, &lock); code != http.StatusOK {
			t.Fatalf("lockset: status %d", code)
		}
		if lock.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lockset never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lock.Threads != 2 || lock.Accesses == 0 || len(lock.Races) == 0 {
		t.Errorf("lockset = %+v, want 2 threads, some accesses and races", lock)
	}

	sn := s.Snapshot()
	lockClusters, otherClusters := 0, 0
	for _, c := range sn.A.Clusters {
		hasLock := false
		for _, p := range c.Pointers {
			hasLock = hasLock || lockset.LockDemand(sn.Prog.Var(p))
		}
		if hasLock {
			lockClusters++
		} else {
			otherClusters++
		}
		if solved := sn.A.ClusterSolved(c.ID); solved != hasLock {
			t.Errorf("cluster %d (lock pointers: %v): solved = %v", c.ID, hasLock, solved)
		}
	}
	if lockClusters == 0 || otherClusters == 0 {
		t.Fatalf("cover has %d lock and %d other clusters; want both", lockClusters, otherClusters)
	}

	var chk CheckResponse
	if code := do(t, s, "POST", "/v1/check", `{"pass":"lockset","timeout_ms":1}`, &chk); code != http.StatusOK {
		t.Fatalf("check: status %d", code)
	}
	if !chk.Ready {
		t.Fatal("/v1/check lockset did not reuse the finished /v1/lockset run")
	}
	if got := runs.Value() - before; got != 1 {
		t.Errorf("check_pass_runs_total grew by %d, want 1", got)
	}
	races := map[string]bool{}
	for _, r := range lock.Races {
		races[r] = true
	}
	msgs := map[string]bool{}
	for _, f := range chk.Findings {
		msgs[f.Message] = true
	}
	if !reflect.DeepEqual(races, msgs) {
		t.Errorf("races %v != findings' messages %v", lock.Races, msgs)
	}
}
