package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bootstrap/internal/frontend"
	"bootstrap/internal/ir"
	"bootstrap/internal/obs"
)

// fuzzRoutes are the POST routes FuzzServeRequests drives; a fuzz
// input's route byte picks one modulo their count.
var fuzzRoutes = []string{"/v1/mayalias", "/v1/pointsto", "/v1/lockset", "/v1/check", "/edit"}

// FuzzServeRequests sends one arbitrary body to one route of a fresh
// server on testProgram. Whatever the body, the answer is never a 500
// and no handler panics: malformed input is a 4xx, never a crash.
func FuzzServeRequests(f *testing.F) {
	prog, err := frontend.LowerSource(testProgram)
	if err != nil {
		f.Fatal(err)
	}
	var addrP ir.Loc = ir.NoLoc
	for _, n := range prog.Nodes {
		if n.Stmt.Op == ir.OpAddr && prog.VarName(n.Stmt.Dst) == "p" && n.CallLoc == ir.NoLoc {
			addrP = n.Loc
		}
	}
	seeds := map[string][]string{
		"/v1/mayalias": {`{"p":"x","q":"y"}`, `{"p":"nope","q":"y"}`, `{"p":"x","q":"nope"}`,
			`not json`, `{"p":"x","q":"y","at":"nofunc"}`, `{"p":"l1","q":"l2","at":"locks"}`},
		"/v1/pointsto": {`{"p":"x"}`, `{"p":"nope"}`, `{"p":"x","timeout_ms":1}`},
		"/v1/lockset":  {`{}`, ``},
		"/v1/check": {`{"pass":"lockset"}`, `{"pass":"uaf","timeout_ms":1}`, `{"pass":"nosuch"}`,
			`{"pass":"deadlock"}`, `{"pass":"nullcheck"}`},
		"/edit": {`{"edits":[]}`, `{"edits":[{"action":"warp","loc":1}]}`,
			`{"edits":[{"action":"replace","loc":1,"op":"copy","dst":"nosuch","src":"x"}]}`,
			`{"edits":[{"action":"delete","loc":999999}]}`,
			fmt.Sprintf(`{"edits":[{"action":"replace","loc":%d,"op":"addr","dst":"p","src":"a"}]}`, addrP),
			fmt.Sprintf(`{"edits":[{"action":"delete","loc":%d}]}`, addrP),
			`{"edits":[{"action":"addvar","name":"fresh","kind":"global"}]}`},
	}
	for i, route := range fuzzRoutes {
		for _, body := range seeds[route] {
			f.Add(uint8(i), body)
		}
	}
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		m := obs.NewMetrics()
		s := newTestServer(t, testProgram, func(c *Config) { c.Metrics = m })
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s %q: 500: %s", path, body, w.Body.String())
		}
		if n := m.Counter("aliasd_handler_panics_total", "").Value(); n != 0 {
			t.Fatalf("POST %s %q: %d handler panics", path, body, n)
		}
	})
}
