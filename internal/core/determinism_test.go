package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bootstrap/internal/cache"
	"bootstrap/internal/cluster"
	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
)

// aliasDump serializes every query surface the facade exposes into one
// canonical string: the cover (IDs, kinds, pointer sets), per-pointer
// cluster membership, points-to sets, alias sets and health statuses.
// Health is the eager record plus the query-time one, so a lazy analysis
// whose clusters were all solved on demand dumps like an eager one. Two
// analyses with equal dumps are observably identical.
func aliasDump(a *Analysis) string {
	var b strings.Builder
	for _, c := range a.Clusters {
		fmt.Fprintf(&b, "cluster %d %s %v\n", c.ID, c.Kind, c.Pointers)
	}
	for _, h := range append(append([]ClusterHealth(nil), a.Health...), a.QueryHealth()...) {
		fmt.Fprintf(&b, "health %d %s demoted=%v\n", h.ClusterID, h.Status, h.Demoted)
	}
	exit := a.Prog.Func(a.Prog.Entry).Exit
	var ptrs []ir.VarID
	for p := range a.byPointer {
		ptrs = append(ptrs, p)
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i] < ptrs[j] })
	for _, p := range ptrs {
		objs, precise := a.PointsTo(p, exit)
		fmt.Fprintf(&b, "pts %d %v %v\n", p, objs, precise)
		fmt.Fprintf(&b, "aliases %d %v clusters=%v\n", p, a.Aliases(p, exit), a.ClustersOf(p))
	}
	return b.String()
}

// topology runs one cover configuration under one execution topology.
type topology struct {
	name string
	run  func(t *testing.T, cfg Config) *Analysis
}

// topologies are the ways the cascade can execute one configuration:
// eager on one worker (the reference) and on eight, lazy with every
// cluster then solved through EnsureCluster, served entirely from a warm
// result cache, and split into BuildPlan + AnalyzeFromPlan. Scheduling
// trades work, never answers, so every topology must agree.
var topologies = []topology{
	{"workers1", func(t *testing.T, cfg Config) *Analysis {
		cfg.Workers = 1
		return mustAnalyze(t, cfg)
	}},
	{"workers8", func(t *testing.T, cfg Config) *Analysis {
		cfg.Workers = 8
		return mustAnalyze(t, cfg)
	}},
	{"lazy", func(t *testing.T, cfg Config) *Analysis {
		cfg.Workers, cfg.Lazy = 8, true
		a := mustAnalyze(t, cfg)
		if len(a.Health) != 0 || len(a.QueryHealth()) != 0 {
			t.Fatal("lazy analysis solved clusters eagerly")
		}
		for _, c := range a.Clusters {
			if _, _, final := a.EnsureCluster(context.Background(), c.ID); !final {
				t.Fatalf("EnsureCluster(%d) did not finish", c.ID)
			}
		}
		return a
	}},
	{"warm-cache", func(t *testing.T, cfg Config) *Analysis {
		cfg.Cache = cache.New(cache.Options{})
		cfg.Workers = 8
		cold := mustAnalyze(t, cfg)
		if st := cold.CacheStats; st.Hits+st.Misses != int64(len(cold.Health)) {
			t.Errorf("cold run stats = %+v, want one probe per cluster", st)
		}
		cfg.Workers = 1
		warm := mustAnalyze(t, cfg)
		if warm.CacheStats.Misses != 0 || warm.CacheStats.Hits != int64(len(warm.Health)) {
			t.Errorf("warm run stats = %+v, want %d hits and no misses", warm.CacheStats, len(warm.Health))
		}
		return warm
	}},
	{"plan-workers1", func(t *testing.T, cfg Config) *Analysis {
		cfg.Workers = 1
		return mustPlanAnalyze(t, cfg)
	}},
	{"plan-workers8", func(t *testing.T, cfg Config) *Analysis {
		cfg.Workers = 8
		return mustPlanAnalyze(t, cfg)
	}},
}

func mustAnalyze(t *testing.T, cfg Config) *Analysis {
	t.Helper()
	a, err := AnalyzeSource(testProgram, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustPlanAnalyze(t *testing.T, cfg Config) *Analysis {
	t.Helper()
	prog, err := frontend.LowerSource(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := BuildPlan(context.Background(), prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeFromPlan(context.Background(), pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestDeterministicAcrossWorkersAndKnobs is the topology-identity table:
// for every cover configuration (each clustering mode, One-Flow, and the
// Andersen cascade under demand selection and the hybrid cut-off), every
// topology must produce the same cover, answers, health and cluster
// fingerprints as the single-worker eager run.
func TestDeterministicAcrossWorkersAndKnobs(t *testing.T) {
	covers := []struct {
		name string
		cfg  Config
	}{
		{"andersen", Config{Mode: ModeAndersen, AndersenThreshold: 2}},
		{"andersen-demand", Config{Mode: ModeAndersen, AndersenThreshold: 2,
			Demand: func(v *ir.Var) bool { return v.IsLock }}},
		{"andersen-hybrid", Config{Mode: ModeAndersen, AndersenThreshold: 2, HybridSizeLimit: 2}},
		{"oneflow", Config{Mode: ModeAndersen, AndersenThreshold: 2, UseOneFlow: true}},
		{"none", Config{Mode: ModeNone}},
		{"steensgaard", Config{Mode: ModeSteensgaard}},
		{"syntactic", Config{Mode: ModeSyntactic}},
	}
	for _, cv := range covers {
		t.Run(cv.name, func(t *testing.T) {
			var wantDump string
			var wantFP map[int]string
			for _, tp := range topologies {
				t.Run(tp.name, func(t *testing.T) {
					a := tp.run(t, cv.cfg)
					dump, fp := aliasDump(a), a.Fingerprints()
					if wantFP == nil {
						wantDump, wantFP = dump, fp
						return
					}
					if dump != wantDump {
						t.Errorf("results diverge from workers1\n--- workers1\n%s--- %s\n%s", wantDump, tp.name, dump)
					}
					if !reflect.DeepEqual(fp, wantFP) {
						t.Errorf("fingerprints diverge from workers1:\n%v\n%v", wantFP, fp)
					}
				})
			}
		})
	}
}

// TestPipelinedMatchesSerialCover: the cover streamed while clusters are
// already being solved must be the serial BuildAndersen cover exactly —
// same clusters, same IDs, same order — and the streamed analysis must
// answer like a single-worker BuildPlan + AnalyzeFromPlan run, including
// under demand selection and the hybrid size cut-off.
func TestPipelinedMatchesSerialCover(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Mode: ModeAndersen, AndersenThreshold: 2, Workers: 4}},
		{"demand", Config{Mode: ModeAndersen, AndersenThreshold: 2, Workers: 4,
			Demand: func(v *ir.Var) bool { return v.IsLock }}},
		{"hybrid", Config{Mode: ModeAndersen, AndersenThreshold: 2, Workers: 4, HybridSizeLimit: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			piped := mustAnalyze(t, tc.cfg)
			serialCover := cluster.BuildAndersen(piped.Prog, piped.Steens, tc.cfg.AndersenThreshold,
				Config{Workers: 1}.andersenOpts()...)
			if len(piped.Clusters) != len(serialCover) {
				t.Fatalf("cover sizes differ: streamed %d vs serial %d", len(piped.Clusters), len(serialCover))
			}
			for i, c := range piped.Clusters {
				s := serialCover[i]
				if c.ID != s.ID || c.Kind != s.Kind || !reflect.DeepEqual(c.Pointers, s.Pointers) {
					t.Errorf("cluster %d: streamed {%d %s %v}, serial {%d %s %v}",
						i, c.ID, c.Kind, c.Pointers, s.ID, s.Kind, s.Pointers)
				}
			}
			serialCfg := tc.cfg
			serialCfg.Workers = 1
			serial := mustPlanAnalyze(t, serialCfg)
			if got, want := aliasDump(piped), aliasDump(serial); got != want {
				t.Errorf("pipelined cover/results diverge from serial\n--- serial\n%s--- pipelined\n%s", want, got)
			}
		})
	}
}
