package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flashwear/internal/obs"
)

// These tests pin the HTTP plane's failure behavior: idempotent retries
// on the server, retry/timeout policy in the client, and SSE streams
// releasing on graceful shutdown.

func newTestServer(t *testing.T) (*Manager, *Server, *httptest.Server) {
	t.Helper()
	m, err := NewManagerOpts(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	pauseAllAtCleanup(t, m)
	h := NewServer(m)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return m, h, srv
}

// pauseAllAtCleanup stops every campaign m holds when the test ends, so a
// test that submits without waiting leaves no sweep writing into the
// directory TempDir's cleanup (registered earlier, so run later) removes.
func pauseAllAtCleanup(t *testing.T, m *Manager) {
	t.Cleanup(func() {
		for _, c := range m.List() {
			c.Pause()
		}
	})
}

// fastClient retries immediately and times out quickly, so failure-path
// tests stay fast.
func fastClient(url string, attempts int) *Client {
	return &Client{
		BaseURL: url,
		Timeout: 2 * time.Second,
		Retry:   obs.Backoff{Attempts: attempts, Sleep: noPause},
	}
}

// postSubmit issues a raw submit with an explicit Idempotency-Key.
func postSubmit(t *testing.T, url, key string, spec CampaignSpec) Status {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/campaigns", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/campaigns: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// TestIdempotentSubmitDedupes pins the core retry-safety property: the
// same Idempotency-Key replayed against POST /v1/campaigns yields the
// same campaign, not a duplicate.
func TestIdempotentSubmitDedupes(t *testing.T) {
	m, _, srv := newTestServer(t)
	st1 := postSubmit(t, srv.URL, "retry-123", tinySpec())
	st2 := postSubmit(t, srv.URL, "retry-123", tinySpec())
	if st1.ID != st2.ID {
		t.Errorf("retried submit created a second campaign: %s then %s", st1.ID, st2.ID)
	}
	if n := len(m.List()); n != 1 {
		t.Errorf("campaigns registered = %d, want 1", n)
	}
	// A different key is a different request.
	st3 := postSubmit(t, srv.URL, "other-456", tinySpec())
	if st3.ID == st1.ID {
		t.Error("distinct key replayed the first campaign")
	}
	if n := len(m.List()); n != 2 {
		t.Errorf("campaigns registered = %d, want 2", n)
	}
}

// TestIdempotentKeyScopedToRoute pins the key namespace: the same key on
// different endpoints must not collide.
func TestIdempotentKeyScopedToRoute(t *testing.T) {
	m, _, srv := newTestServer(t)
	st := postSubmit(t, srv.URL, "shared-key", tortureSpec())
	c, _ := m.Get(st.ID)
	c.Wait()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/campaigns/"+st.ID+"/pause", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "shared-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	// If the namespace collided, the pause would replay the submit's
	// recorded body (a paused initial status) rather than execute.
	if got.State != StateDone {
		t.Errorf("pause under shared key returned state %s, want done (fresh execution)", got.State)
	}
}

// TestIdempotentFailureNotReplayed pins the not-recorded branch: a 4xx
// outcome is not cached, so a corrected retry under the same key
// executes.
func TestIdempotentFailureNotReplayed(t *testing.T) {
	_, _, srv := newTestServer(t)
	bad := tinySpec()
	bad.Days = -1
	raw, _ := json.Marshal(bad)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/campaigns", bytes.NewReader(raw))
	req.Header.Set("Idempotency-Key", "fix-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Fatalf("invalid spec accepted: %d", resp.StatusCode)
	}
	st := postSubmit(t, srv.URL, "fix-me", tinySpec())
	if st.ID == "" {
		t.Error("corrected retry under the same key did not execute")
	}
}

// TestIdempotentConcurrentDuplicates pins the in-flight dedup: N racing
// submits under one key produce exactly one campaign and N identical
// responses.
func TestIdempotentConcurrentDuplicates(t *testing.T) {
	m, _, srv := newTestServer(t)
	const racers = 8
	ids := make([]string, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = postSubmit(t, srv.URL, "race-key", tinySpec()).ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("racer %d got campaign %s, racer 0 got %s", i, ids[i], ids[0])
		}
	}
	if n := len(m.List()); n != 1 {
		t.Errorf("campaigns registered = %d, want 1", n)
	}
}

// TestClientRetriesAfter5xx pins the client's retry loop: transient 5xx
// responses are retried (with the same Idempotency-Key) until the server
// recovers.
func TestClientRetriesAfter5xx(t *testing.T) {
	m, err := NewManagerOpts(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	pauseAllAtCleanup(t, m)
	inner := NewServer(m)
	var calls atomic.Int64
	var keys sync.Map
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if k := r.Header.Get("Idempotency-Key"); k != "" {
			keys.Store(n, k)
		}
		if n <= 2 {
			http.Error(w, `{"error":"shard flapping"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	cl := fastClient(flaky.URL, 3)
	st, err := cl.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit through flaky server: %v", err)
	}
	if st.ID == "" {
		t.Error("no campaign ID after retried submit")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (two 503s + success)", got)
	}
	k1, ok1 := keys.Load(int64(1))
	k3, ok3 := keys.Load(int64(3))
	if !ok1 || !ok3 || k1 != k3 {
		t.Errorf("retries did not reuse the Idempotency-Key: first=%v last=%v", k1, k3)
	}
}

// TestClientDoesNotRetry4xx pins the other side: a request the server
// rejected as wrong is not retried.
func TestClientDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such campaign"}`, http.StatusNotFound)
	}))
	defer srv.Close()

	cl := fastClient(srv.URL, 3)
	_, err := cl.Status("nope")
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want *APIError 404", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d requests for a 404, want 1", got)
	}
}

// TestClientRetriesExhaust pins retry exhaustion: a persistently failing
// server yields the final attempt's error after exactly Attempts tries.
func TestClientRetriesExhaust(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"disk on fire"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	cl := fastClient(srv.URL, 3)
	_, err := cl.Submit(tinySpec())
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusInternalServerError {
		t.Fatalf("err = %v, want *APIError 500", err)
	}
	if !strings.Contains(ae.Message, "disk on fire") {
		t.Errorf("error lost the server's message: %q", ae.Message)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
}

// TestClientPerRequestTimeout pins the deadline: an attempt against a
// hung server is cut off by Client.Timeout and surfaces as an error
// after the retry budget, not a hang.
func TestClientPerRequestTimeout(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()

	cl := &Client{
		BaseURL: srv.URL,
		Timeout: 50 * time.Millisecond,
		Retry:   obs.Backoff{Attempts: 2, Sleep: noPause},
	}
	start := time.Now()
	_, err := cl.Status("x")
	if err == nil {
		t.Fatal("no error from hung server")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not enforced", elapsed)
	}
	// Under load the deadline can expire before the handler runs, so the
	// exact count varies; the retry budget is the hard bound.
	if got := calls.Load(); got > 2 {
		t.Errorf("server saw %d attempts, want <= 2 (retry budget)", got)
	}
}

// TestWatchEndsOnShutdown pins graceful drain: Server.Shutdown releases
// a live SSE stream so http.Server.Shutdown can finish.
func TestWatchEndsOnShutdown(t *testing.T) {
	m, h, srv := newTestServer(t)
	st := postSubmit(t, srv.URL, "", tortureSpec())
	c, _ := m.Get(st.ID)
	c.Wait()

	cl := &Client{BaseURL: srv.URL}
	streaming := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var once sync.Once
		done <- cl.Watch(st.ID, 0, func(obs.Event) error {
			once.Do(func() { close(streaming) })
			return nil
		})
	}()
	select {
	case <-streaming:
	case err := <-done:
		t.Fatalf("watch ended before shutdown: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("watch never delivered an event")
	}
	h.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch after shutdown returned %v, want clean end", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch stream did not end on Server.Shutdown")
	}
}
