package lockset

import (
	"testing"

	"bootstrap/internal/core"
	"bootstrap/internal/ir"
)

// driverSrc models a small driver: two entry points share counters, one
// protected by a lock, one not.
const driverSrc = `
	lock mtx;
	lock *lp;
	int counter;
	int unprot;
	int *cp;
	void acquire(lock *l) { }
	void release(lock *l) { }
	void thread_open() {
		lp = &mtx;
		acquire(lp);
		counter = 1;
		release(lp);
		unprot = 1;
	}
	void thread_ioctl() {
		lp = &mtx;
		acquire(lp);
		counter = 2;
		release(lp);
		unprot = 2;
	}
	void main() {
		thread_open();
		thread_ioctl();
	}
`

// coreSource serves Source straight from an analysis (PointsTo is
// promoted).
type coreSource struct{ *core.Analysis }

func (s coreSource) Program() *ir.Program { return s.Prog }

func detect(t *testing.T, src string, cfg Config) (*core.Analysis, []Race, []Access) {
	t.Helper()
	a, err := core.AnalyzeSource(src, core.Config{Mode: core.ModeSteensgaard, Workers: 1})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	d := NewDetectorSource(coreSource{a}, cfg)
	races, accesses := d.Detect()
	return a, races, accesses
}

func racesOn(a *core.Analysis, races []Race, name string) []Race {
	var out []Race
	for _, r := range races {
		if a.Prog.VarName(r.Var) == name {
			out = append(out, r)
		}
	}
	return out
}

func TestProtectedVsUnprotected(t *testing.T) {
	a, races, accesses := detect(t, driverSrc, Config{})
	if len(accesses) == 0 {
		t.Fatal("no accesses collected")
	}
	if got := racesOn(a, races, "counter"); len(got) != 0 {
		t.Errorf("counter is lock-protected; found races: %v", got[0].Format(a.Prog))
	}
	if got := racesOn(a, races, "unprot"); len(got) == 0 {
		t.Error("unprot is unprotected and written by two threads; expected a race")
	}
}

func TestLockResolutionThroughAlias(t *testing.T) {
	// The two threads take the same lock through different pointers; the
	// must-alias analysis must see through the copies.
	src := `
		lock mtx;
		lock *l1, *l2;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			l1 = &mtx;
			acquire(l1);
			shared = 1;
			release(l1);
		}
		void thread_b() {
			l2 = &mtx;
			acquire(l2);
			shared = 2;
			release(l2);
		}
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) != 0 {
		t.Errorf("same lock through aliased pointers; got race: %s", got[0].Format(a.Prog))
	}
}

func TestDifferentLocksRace(t *testing.T) {
	src := `
		lock m1, m2;
		lock *l1, *l2;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			l1 = &m1;
			acquire(l1);
			shared = 1;
			release(l1);
		}
		void thread_b() {
			l2 = &m2;
			acquire(l2);
			shared = 2;
			release(l2);
		}
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) == 0 {
		t.Error("different locks guard the accesses; expected a race")
	}
}

func TestBranchLosesLock(t *testing.T) {
	// Acquire on only one branch: the must-lockset at the access is empty.
	src := `
		lock mtx;
		lock *lp;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			lp = &mtx;
			if (*) { acquire(lp); }
			shared = 1;
		}
		void thread_b() {
			lp = &mtx;
			acquire(lp);
			shared = 2;
			release(lp);
		}
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) == 0 {
		t.Error("conditional acquire does not protect; expected a race")
	}
}

func TestInterproceduralLockset(t *testing.T) {
	// The lock is held across a helper call; accesses inside the helper
	// inherit it.
	src := `
		lock mtx;
		lock *lp;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void work() { shared = 1; }
		void thread_a() {
			lp = &mtx;
			acquire(lp);
			work();
			release(lp);
		}
		void thread_b() {
			lp = &mtx;
			acquire(lp);
			shared = 2;
			release(lp);
		}
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) != 0 {
		t.Errorf("helper runs under the lock; got race: %s", got[0].Format(a.Prog))
	}
}

func TestSelfParallelDefault(t *testing.T) {
	src := `
		int shared;
		void thread_a() { shared = 1; }
		void main() { thread_a(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) == 0 {
		t.Error("a reentrant entry point races with itself by default")
	}
	_, races2, _ := detect(t, src, Config{SequentialSelf: true})
	if len(races2) != 0 {
		t.Error("SequentialSelf should suppress self races")
	}
}

func TestDemandDrivenDetection(t *testing.T) {
	// The demand-driven pipeline (lock clusters only) must reach the same
	// verdicts as the full analysis.
	a, err := core.AnalyzeSource(driverSrc, core.Config{
		Mode: core.ModeSteensgaard, Workers: 1, Demand: LockDemand,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetectorSource(coreSource{a}, Config{})
	races, _ := d.Detect()
	if got := racesOn(a, races, "counter"); len(got) != 0 {
		t.Errorf("demand-driven: counter protected, got race %s", got[0].Format(a.Prog))
	}
	if got := racesOn(a, races, "unprot"); len(got) == 0 {
		t.Error("demand-driven: unprot should race")
	}
}

func TestHeapLockObjects(t *testing.T) {
	src := `
		lock *lp;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			acquire(lp);
			shared = 1;
			release(lp);
		}
		void main() {
			lp = malloc;
			thread_a();
		}
	`
	a, races, _ := detect(t, src, Config{})
	// lp resolves to the single allocation site: a must-lock.
	if got := racesOn(a, races, "shared"); len(got) != 0 {
		t.Errorf("heap lock protects both instances; got race: %s", got[0].Format(a.Prog))
	}
	var _ ir.VarID
}

func TestRaceFormat(t *testing.T) {
	a, races, _ := detect(t, driverSrc, Config{})
	for _, r := range races {
		s := r.Format(a.Prog)
		if s == "" {
			t.Error("empty race format")
		}
	}
}

func TestUnknownReleaseClearsLockset(t *testing.T) {
	// Releasing through an ambiguous pointer must drop every held lock
	// (conservative for a must-set).
	src := `
		lock m1, m2;
		lock *lp, *amb;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			lp = &m1;
			acquire(lp);
			if (*) { amb = &m1; } else { amb = &m2; }
			release(amb);
			shared = 1;
		}
		void thread_b() { shared = 2; }
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) == 0 {
		t.Error("after an ambiguous release nothing is definitely held; expected a race")
	}
}

func TestUnknownAcquireDoesNotProtect(t *testing.T) {
	src := `
		lock m1, m2;
		lock *amb;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			if (*) { amb = &m1; } else { amb = &m2; }
			acquire(amb);
			shared = 1;
		}
		void thread_b() { shared = 2; }
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) == 0 {
		t.Error("an ambiguous acquire must not count as protection")
	}
}

func TestNestedLocks(t *testing.T) {
	src := `
		lock m1, m2;
		lock *l1, *l2;
		int inner, outer;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			l1 = &m1;
			l2 = &m2;
			acquire(l1);
			outer = 1;
			acquire(l2);
			inner = 1;
			release(l2);
			release(l1);
		}
		void thread_b() {
			l1 = &m1;
			l2 = &m2;
			acquire(l1);
			outer = 2;
			acquire(l2);
			inner = 2;
			release(l2);
			release(l1);
		}
		void main() { thread_a(); thread_b(); }
	`
	a, races, accesses := detect(t, src, Config{})
	if len(races) != 0 {
		t.Errorf("all accesses protected; got races: %v", races[0].Format(a.Prog))
	}
	// The inner access must hold BOTH locks.
	for _, acc := range accesses {
		if a.Prog.VarName(acc.Var) == "inner" && len(acc.Locks) != 2 {
			t.Errorf("inner access holds %d locks, want 2", len(acc.Locks))
		}
	}
}

func TestLoopLockset(t *testing.T) {
	// A lock acquired before a loop protects accesses inside it; the
	// must-dataflow has to converge through the back edge.
	src := `
		lock m;
		lock *lp;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			lp = &m;
			acquire(lp);
			while (*) { shared = 1; }
			release(lp);
		}
		void thread_b() {
			lp = &m;
			acquire(lp);
			shared = 2;
			release(lp);
		}
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) != 0 {
		t.Errorf("loop body runs under the lock; got %s", got[0].Format(a.Prog))
	}
}

func TestAcquireInLoopBody(t *testing.T) {
	// Acquired and released inside the loop: protected at the access.
	src := `
		lock m;
		lock *lp;
		int shared;
		void acquire(lock *l) { }
		void release(lock *l) { }
		void thread_a() {
			lp = &m;
			while (*) {
				acquire(lp);
				shared = 1;
				release(lp);
			}
		}
		void thread_b() {
			lp = &m;
			acquire(lp);
			shared = 2;
			release(lp);
		}
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) != 0 {
		t.Errorf("both accesses protected by m; got %s", got[0].Format(a.Prog))
	}
}

func TestNoThreads(t *testing.T) {
	src := `
		int shared;
		void main() { shared = 1; }
	`
	_, races, accesses := detect(t, src, Config{})
	if len(races) != 0 || len(accesses) != 0 {
		t.Error("no thread entries: nothing to report")
	}
}

func TestReadsDoNotRaceWithReads(t *testing.T) {
	src := `
		int shared;
		int sink;
		void thread_a() { sink = shared; }
		void thread_b() { sink = shared; }
		void main() { thread_a(); thread_b(); }
	`
	a, races, _ := detect(t, src, Config{})
	if got := racesOn(a, races, "shared"); len(got) != 0 {
		t.Errorf("read-read pairs never race; got %s", got[0].Format(a.Prog))
	}
	// sink is written by both: that IS a race.
	if got := racesOn(a, races, "sink"); len(got) == 0 {
		t.Error("write-write on sink should race")
	}
}
