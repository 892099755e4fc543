package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client speaks the daemon's v1 HTTP/JSON API over at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// ticketView is the subset of the daemon's ticket JSON the benchmark reads.
type ticketView struct {
	ID                int     `json:"id"`
	Status            string  `json:"status"`
	Error             string  `json:"error"`
	QueueWaitSeconds  float64 `json:"queue_wait_seconds"`
	RuntimeSeconds    float64 `json:"runtime_seconds"`
	SimRuntimeSeconds float64 `json:"sim_runtime_seconds"`
}

// drainView is the subset of POST /v1/drain's recovery state it reads.
type drainView struct {
	Failed      uint64 `json:"failed"`
	SharedLoads uint64 `json:"shared_loads"`
	Error       string `json:"error"`
}

// healthView is the subset of GET /healthz it reads.
type healthView struct {
	Status    string          `json:"status"`
	Recovered json.RawMessage `json:"recovered"`
}

// do sends one request and decodes a 2xx JSON answer into out. It returns
// the status code; a transport failure returns status 0 and the error.
func (c *client) do(method, path, tenant string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

func (c *client) submit(tenant, algo string, seed int64) (ticketView, int, error) {
	var tv ticketView
	code, err := c.do("POST", "/v1/jobs", tenant, map[string]any{"algo": algo, "seed": seed}, &tv)
	return tv, code, err
}

func (c *client) ticket(id int) (ticketView, error) {
	var tv ticketView
	_, err := c.do("GET", fmt.Sprintf("/v1/jobs/%d", id), "", nil, &tv)
	return tv, err
}

type edgeJSON struct {
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Weight float32 `json:"weight"`
}

func (c *client) addEdges(edges []edgeJSON) (int, error) {
	return c.do("POST", "/v1/graph/edges", "", map[string]any{"edges": edges}, nil)
}

func (c *client) removeInto(dst uint32) (int, error) {
	return c.do("DELETE", "/v1/graph/edges", "", map[string]any{"dst": dst}, nil)
}

func (c *client) drain() (drainView, error) {
	var dv drainView
	_, err := c.do("POST", "/v1/drain", "", nil, &dv)
	return dv, err
}

func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// waitHealthy polls /healthz until it answers 200 (carrying a recovered
// object when wantRecovered) and returns the instant it did.
func waitHealthy(base string, wantRecovered bool, timeout time.Duration) (time.Time, error) {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			var hv healthView
			derr := json.NewDecoder(resp.Body).Decode(&hv)
			resp.Body.Close()
			now := time.Now()
			if resp.StatusCode == http.StatusOK && derr == nil {
				if !wantRecovered || (len(hv.Recovered) > 0 && string(hv.Recovered) != "null") {
					return now, nil
				}
				return now, fmt.Errorf("/healthz answered without a recovered object: status %q", hv.Status)
			}
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("daemon at %s not healthy after %v (last error: %v)", base, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}
