package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphm/internal/core"
	"graphm/internal/scenario"
	"graphm/internal/service"
	"graphm/internal/slo"
)

// newTestSystem builds a small dedicated core.System for one test server.
func newTestSystem(t *testing.T, name string) *core.System {
	t.Helper()
	env, _, err := scenario.GenEnv(name, 300, 2000, 3, 7, 32<<10, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig(32 << 10)
	ccfg.Cores = 2
	sys, err := core.NewSystem(env.Layout, env.Mem, env.Cache, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// newTestServer starts an httptest server (a real loopback socket) around a
// fresh daemon.
func newTestServer(t *testing.T, svcCfg service.Config, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(newTestSystem(t, "server-"+t.Name()), svcCfg, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// submit posts one job and returns the decoded response plus status code.
func submit(t *testing.T, ts *httptest.Server, tenant, algo string) (ticketResponse, int) {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Algo: algo})
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr ticketResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return tr, resp.StatusCode
}

// getTicket fetches one ticket's JSON view.
func getTicket(t *testing.T, ts *httptest.Server, id int) (ticketResponse, int) {
	t.Helper()
	resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr ticketResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return tr, resp.StatusCode
}

// pollDone polls a ticket until it reaches a terminal status.
func pollDone(t *testing.T, ts *httptest.Server, id int) ticketResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		tr, code := getTicket(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%d: status %d", id, code)
		}
		switch tr.Status {
		case "done", "canceled", "failed":
			return tr
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("ticket %d never turned terminal", id)
	return ticketResponse{}
}

// TestSubmitStatusLifecycle drives one job through submit → poll → done
// over the socket and checks the JSON view at both ends.
func TestSubmitStatusLifecycle(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxInFlight: 4}, Config{})

	tr, code := submit(t, ts, "analytics", "pagerank")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if tr.ID == 0 || tr.Tenant != "analytics" || tr.Algo != "pagerank" {
		t.Fatalf("submit view: %+v", tr)
	}
	done := pollDone(t, ts, tr.ID)
	if done.Status != "done" {
		t.Fatalf("final status %q, want done (%+v)", done.Status, done)
	}
	if done.Iterations == 0 || done.Stats == nil {
		t.Fatalf("terminal view should carry metrics: %+v", done)
	}
	if done.Stats.Rounds == 0 {
		t.Fatalf("terminal stats delta should include rounds: %+v", done.Stats)
	}
}

// TestTicketErrors covers unknown ids, malformed ids, and default tenant.
func TestTicketErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Config{}, Config{})

	if _, code := getTicket(t, ts, 9999); code != http.StatusNotFound {
		t.Fatalf("unknown ticket: status %d, want 404", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/notanumber")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed id: status %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/9999", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: status %d, want 404", resp.StatusCode)
	}

	tr, code := submit(t, ts, "", "wcc")
	if code != http.StatusAccepted || tr.Tenant != "default" {
		t.Fatalf("default tenant: code %d view %+v", code, tr)
	}
}

// TestSubmitValidation covers the 400 surface: bad JSON, unknown fields,
// missing and unknown algorithms, and bad tenant headers.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, service.Config{}, Config{})

	post := func(tenant, body string) int {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode >= 400 && e.Error == "" {
			t.Fatalf("error response without error field (body %q)", body)
		}
		return resp.StatusCode
	}
	cases := []struct {
		name, tenant, body string
		want               int
	}{
		{"bad json", "", "{", http.StatusBadRequest},
		{"unknown field", "", `{"algo":"wcc","nope":1}`, http.StatusBadRequest},
		{"missing algo", "", `{}`, http.StatusBadRequest},
		{"unknown algo", "", `{"algo":"quicksort"}`, http.StatusBadRequest},
		{"tenant with space", "a b", `{"algo":"wcc"}`, http.StatusBadRequest},
		{"tenant too long", strings.Repeat("x", 65), `{"algo":"wcc"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := post(tc.tenant, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCancelQueued cancels a still-queued ticket over the socket, using a
// FinishGate to hold the in-flight slot so the queue state is
// deterministic. (Streaming-cancel semantics are covered by the service
// package; the HTTP layer only relays them.)
func TestCancelQueued(t *testing.T) {
	release := make(chan struct{})
	gated := make(chan int, 16)
	svcCfg := service.Config{
		MaxInFlight: 1,
		FinishGate: func(tk *service.Ticket) {
			gated <- tk.ID
			<-release
		},
	}
	s, ts := newTestServer(t, svcCfg, Config{})

	first, code := submit(t, ts, "t0", "wcc")
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code)
	}
	// Wait until the first job has streamed and parked in the gate: the
	// in-flight slot is held, so the second submission must queue.
	<-gated
	second, code := submit(t, ts, "t0", "wcc")
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: %d", code)
	}
	if st := second.Status; st != "queued" {
		t.Fatalf("second ticket should be queued, got %q", st)
	}

	req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/jobs/%d", ts.URL, second.ID), nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view ticketResponse
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || view.Status != "canceled" {
		t.Fatalf("queued cancel: status %d view %+v", resp.StatusCode, view)
	}

	close(release)
	if done := pollDone(t, ts, first.ID); done.Status != "done" {
		t.Fatalf("first job: %+v", done)
	}
	if err := s.Service().Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRateLimit429 exercises the per-tenant token bucket on a virtual
// clock: burst spends, then 429 with Retry-After, then refill re-admits —
// and an unrelated tenant is never throttled by the first one's spree.
func TestRateLimit429(t *testing.T) {
	clock := core.NewVirtualClock(time.Unix(1000, 0))
	_, ts := newTestServer(t, service.Config{MaxInFlight: 8},
		Config{Clock: clock, RatePerSec: 1, Burst: 2})

	for i := 0; i < 2; i++ {
		if _, code := submit(t, ts, "flood", "wcc"); code != http.StatusAccepted {
			t.Fatalf("burst submit %d: status %d", i, code)
		}
	}
	body, _ := json.Marshal(submitRequest{Algo: "wcc"})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "flood")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	// The flooding tenant does not throttle anyone else.
	if _, code := submit(t, ts, "quiet", "wcc"); code != http.StatusAccepted {
		t.Fatalf("other tenant: status %d", code)
	}
	// One second of refill buys one more token.
	clock.Advance(time.Second)
	if _, code := submit(t, ts, "flood", "wcc"); code != http.StatusAccepted {
		t.Fatalf("post-refill submit: status %d", code)
	}
}

// TestQueueFull429 fills the bounded queue behind a gated in-flight job and
// checks the backpressure path: 429 + Retry-After, counted in /metrics.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	gated := make(chan int, 16)
	svcCfg := service.Config{
		MaxInFlight:        1,
		MaxQueuedPerTenant: 1,
		MaxQueued:          1,
		FinishGate: func(tk *service.Ticket) {
			gated <- tk.ID
			<-release
		},
	}
	s, ts := newTestServer(t, svcCfg, Config{})

	if _, code := submit(t, ts, "t0", "wcc"); code != http.StatusAccepted {
		t.Fatalf("submit 1: %d", code)
	}
	<-gated
	if _, code := submit(t, ts, "t0", "wcc"); code != http.StatusAccepted {
		t.Fatalf("submit 2 (queued): %d", code)
	}
	if _, code := submit(t, ts, "t0", "wcc"); code != http.StatusTooManyRequests {
		t.Fatalf("submit 3 should hit queue-full backpressure, got %d", code)
	}
	close(release)
	if err := s.Service().Drain(); err != nil {
		t.Fatal(err)
	}
	if got := s.httpRateLimited.Load(); got != 1 {
		t.Fatalf("rate-limited counter = %d, want 1", got)
	}
}

// TestDrainEndpoint drains over the socket and checks the recovery state,
// the draining health flag, and that later submissions get 503.
func TestDrainEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxInFlight: 4}, Config{})

	var ids []int
	for i := 0; i < 3; i++ {
		tr, code := submit(t, ts, "t0", "pagerank")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, tr.ID)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var st RecoveryState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Drained || st.Submitted != 3 || st.Completed != 3 || st.Error != "" {
		t.Fatalf("recovery state: %+v", st)
	}
	if st.QueueWait.Count != 3 {
		t.Fatalf("drain-time SLO window should hold 3 waits: %+v", st.QueueWait)
	}
	for _, id := range ids {
		if tr, _ := getTicket(t, ts, id); tr.Status != "done" {
			t.Fatalf("ticket %d after drain: %+v", id, tr)
		}
	}
	if _, code := submit(t, ts, "t0", "wcc"); code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: status %d, want 503", code)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || !health.Draining {
		t.Fatalf("healthz after drain: %+v", health)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition: counter values
// consistent with the run, summary quantiles present, content type right.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{MaxInFlight: 4}, Config{RatePerSec: 1000})

	for i := 0; i < 4; i++ {
		tr, code := submit(t, ts, fmt.Sprintf("t%d", i%2), "wcc")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		pollDone(t, ts, tr.ID)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	metrics := parseMetrics(t, text)

	if metrics["graphm_jobs_submitted_total"] != 4 || metrics["graphm_jobs_completed_total"] != 4 {
		t.Fatalf("job counters: %v", metrics)
	}
	if metrics["graphm_queue_wait_seconds_count"] != 4 {
		t.Fatalf("queue-wait summary count: %v", metrics["graphm_queue_wait_seconds_count"])
	}
	for _, name := range []string{
		"graphm_shared_loads_total", "graphm_rounds_total", "graphm_mid_round_joins_total",
		"graphm_suspensions_total", "graphm_queue_depth",
		"graphm_rate_limiter_tenants", "graphm_http_requests_total",
		`graphm_queue_wait_seconds{quantile="0.99"}`, `graphm_job_runtime_seconds{quantile="0.5"}`,
	} {
		if _, ok := metrics[name]; !ok {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if strings.Contains(text, "NaN") {
		t.Fatal("exposition contains NaN")
	}
}

// parseMetrics reads a Prometheus text exposition into name -> value.
func parseMetrics(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

// TestSLOWindowMatchesOffline is the in-process differential: the rolling
// queue-wait window must report exactly the quantiles the offline
// slo.Summarize (the replay harness's computation) produces over the same
// ticket population.
func TestSLOWindowMatchesOffline(t *testing.T) {
	s, ts := newTestServer(t, service.Config{MaxInFlight: 3},
		Config{SLOWindow: time.Hour})

	var ids []int
	for i := 0; i < 24; i++ {
		tr, code := submit(t, ts, fmt.Sprintf("t%d", i%3), []string{"wcc", "pagerank", "bfs"}[i%3])
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, tr.ID)
	}
	if err := s.Service().Drain(); err != nil {
		t.Fatal(err)
	}
	var waits []float64
	for _, id := range ids {
		tk, ok := s.Service().Ticket(id)
		if !ok {
			t.Fatalf("ticket %d vanished", id)
		}
		waits = append(waits, tk.QueueWait().Seconds())
	}
	got, want := s.WaitSLO(), slo.Summarize(waits)
	if got != want {
		t.Fatalf("window %+v != offline %+v", got, want)
	}
	if s.RunSLO().Count != 24 {
		t.Fatalf("runtime window count %d, want 24", s.RunSLO().Count)
	}
}
