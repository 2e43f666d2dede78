package fleetd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flashwear/internal/fleet"
	"flashwear/internal/obs"
)

// TestCampaignPanicContainment pins fleetd's worker containment: a
// panicking device fails its own campaign — StateFailed, an Err naming the
// device and its seed, a "failed" journal event — while the server keeps
// answering and a sibling campaign runs to completion.
func TestCampaignPanicContainment(t *testing.T) {
	victim := tinySpec()
	other := tinySpec()
	other.Seed = victim.Seed + 1
	fs, err := victim.FleetSpec()
	if err != nil {
		t.Fatal(err)
	}
	bad := fs.Sample(2)
	panicHook = func(p fleet.Params) {
		if p.Seed == bad.Seed {
			panic("injected device panic")
		}
	}
	defer func() { panicHook = nil }()

	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}

	var ids []string
	for _, spec := range []CampaignSpec{victim, other} {
		st, err := cl.Submit(spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		c, _ := m.Get(id)
		c.Wait()
	}

	want := fmt.Sprintf("device 2 (seed %d) panicked: injected device panic", bad.Seed)
	st, err := cl.Status(ids[0])
	if err != nil {
		t.Fatalf("Status after a device panic: %v", err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, want) {
		t.Fatalf("panicked campaign status = %+v, want failed with %q", st, want)
	}
	c, _ := m.Get(ids[0])
	evs := c.Events(0)
	if last := evs[len(evs)-1]; last.Type != "failed" || !strings.Contains(last.Detail, want) {
		t.Errorf("last journal event = %+v, want failed with %q", last, want)
	}
	if st, err := cl.Status(ids[1]); err != nil || st.State != StateDone {
		t.Fatalf("sibling campaign = %+v, %v; want done", st, err)
	}
}

// TestServerAPI drives the full control/query surface through a real
// HTTP round trip: submit, poll, series, ledger, result, pause/resume
// conflict handling, and fork.
func TestServerAPI(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}

	spec := tinySpec()
	spec.CheckpointEvery = 2
	st, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID == "" || st.Devices != 4 || st.Days != 5 {
		t.Fatalf("submit status = %+v", st)
	}

	// Invalid specs are a 400 with a useful message.
	bad := spec
	bad.Days = 0
	if _, err := cl.Submit(bad); err == nil {
		t.Fatal("invalid spec accepted")
	} else if ae, ok := err.(*APIError); !ok || ae.StatusCode != 400 {
		t.Fatalf("invalid spec error = %v, want APIError 400", err)
	}

	// Wait server-side via the in-process handle (the CLI polls; tests
	// shouldn't).
	c, ok := m.Get(st.ID)
	if !ok {
		t.Fatalf("campaign %s not in manager", st.ID)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}

	got, err := cl.Status(st.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if got.State != StateDone || got.DaysDone != 5 {
		t.Fatalf("status after completion = %+v", got)
	}

	list, err := cl.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	csv, err := cl.SeriesCSV(st.ID)
	if err != nil {
		t.Fatalf("SeriesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[0], "day,devices,bricked,read_only,") {
		t.Fatalf("series CSV:\n%s", csv)
	}

	ledger, err := cl.LedgerCSV(st.ID)
	if err != nil {
		t.Fatalf("LedgerCSV: %v", err)
	}
	if !strings.Contains(string(ledger), "origin") {
		t.Fatalf("ledger CSV missing header:\n%s", ledger)
	}

	agg, err := cl.Result(st.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if agg.Total.Devices != 4 {
		t.Fatalf("result devices = %d, want 4", agg.Total.Devices)
	}

	// Resume of a done campaign conflicts.
	if _, err := cl.Resume(st.ID); err == nil {
		t.Fatal("resume of a done campaign succeeded")
	} else if ae, ok := err.(*APIError); !ok || ae.StatusCode != 409 {
		t.Fatalf("resume conflict error = %v, want APIError 409", err)
	}

	// Pause of a done campaign is a harmless no-op.
	if _, err := cl.Pause(st.ID); err != nil {
		t.Fatalf("Pause: %v", err)
	}

	fkSt, err := cl.Fork(st.ID, ForkOptions{Name: "fork", Days: 7})
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	fk, ok := m.Get(fkSt.ID)
	if !ok {
		t.Fatalf("fork %s not in manager", fkSt.ID)
	}
	if err := fk.Wait(); err != nil {
		t.Fatalf("fork failed: %v", err)
	}
	if got, _ := cl.Status(fkSt.ID); got.DaysDone != 7 {
		t.Fatalf("fork days_done = %d, want 7", got.DaysDone)
	}

	// Unknown campaign is a 404 everywhere.
	if _, err := cl.Status("c999999"); err == nil {
		t.Fatal("status of unknown campaign succeeded")
	} else if ae, ok := err.(*APIError); !ok || ae.StatusCode != 404 {
		t.Fatalf("unknown campaign error = %v, want APIError 404", err)
	}
}

// TestServerErrorPaths pins the status code and JSON error shape of every
// failure mode a client can trip: unknown ids, malformed bodies, bad fork
// grids, and operations against campaigns in the wrong state.
func TestServerErrorPaths(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}

	// The error body is always {"error": "..."} with the right status.
	checkJSONError := func(t *testing.T, path, method string, body string, wantCode int) {
		t.Helper()
		var resp *http.Response
		var err error
		switch method {
		case http.MethodGet:
			resp, err = http.Get(srv.URL + path)
		case http.MethodPost:
			resp, err = http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", method, path, ct)
		}
		var ae struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Error == "" {
			t.Errorf("%s %s: error body not {\"error\": ...}: decode err %v, message %q", method, path, err, ae.Error)
		}
	}

	// Unknown campaign id: 404 on every campaign-scoped route.
	for _, p := range []struct{ method, path string }{
		{http.MethodGet, "/v1/campaigns/c999999"},
		{http.MethodGet, "/v1/campaigns/c999999/series"},
		{http.MethodGet, "/v1/campaigns/c999999/ledger"},
		{http.MethodGet, "/v1/campaigns/c999999/result"},
		{http.MethodGet, "/v1/campaigns/c999999/events"},
		{http.MethodGet, "/v1/campaigns/c999999/watch"},
		{http.MethodPost, "/v1/campaigns/c999999/pause"},
		{http.MethodPost, "/v1/campaigns/c999999/resume"},
		{http.MethodPost, "/v1/campaigns/c999999/fork"},
	} {
		checkJSONError(t, p.path, p.method, "{}", http.StatusNotFound)
	}

	// Malformed submit body: 400.
	checkJSONError(t, "/v1/campaigns", http.MethodPost, "{not json", http.StatusBadRequest)
	// Valid JSON, invalid spec: also 400.
	checkJSONError(t, "/v1/campaigns", http.MethodPost, `{"devices": -1}`, http.StatusBadRequest)

	// A finished campaign for the state-dependent paths.
	st, err := cl.Submit(tinySpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	c, _ := m.Get(st.ID)
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}

	// Pause of a finished campaign: 200, state stays done.
	if got, err := cl.Pause(st.ID); err != nil {
		t.Fatalf("pause of done campaign: %v", err)
	} else if got.State != StateDone {
		t.Errorf("pause of done campaign left state %s, want done", got.State)
	}

	// Malformed fork body and bad fork grid: 400 each.
	checkJSONError(t, "/v1/campaigns/"+st.ID+"/fork", http.MethodPost, "{not json", http.StatusBadRequest)
	checkJSONError(t, "/v1/campaigns/"+st.ID+"/fork", http.MethodPost, `{"days": -7}`, http.StatusBadRequest)

	// Bad ?since= values: 400.
	checkJSONError(t, "/v1/campaigns/"+st.ID+"/events?since=banana", http.MethodGet, "", http.StatusBadRequest)
	checkJSONError(t, "/v1/campaigns/"+st.ID+"/watch?since=-1", http.MethodGet, "", http.StatusBadRequest)

	// Fork of a running campaign: 409. A long campaign keeps the source
	// running while we try.
	long := tinySpec()
	long.Devices = 8
	long.Days = 100
	long.CheckpointEvery = 1
	long.Workers = 1
	lst, err := cl.Submit(long)
	if err != nil {
		t.Fatalf("Submit long: %v", err)
	}
	lc, _ := m.Get(lst.ID)
	if lc.State() == StateRunning {
		if _, err := cl.Fork(lst.ID, ForkOptions{Name: "too-soon"}); err == nil {
			t.Error("fork of a running campaign succeeded")
		} else if ae, ok := err.(*APIError); !ok || ae.StatusCode != http.StatusConflict {
			t.Errorf("fork-while-running error = %v, want APIError 409", err)
		}
	} else {
		t.Log("long campaign finished before the fork attempt; 409 path not exercised")
	}
	lc.Pause()
}

// TestServerMetricsAndEvents pins the two ops-plane read endpoints:
// /metrics serves the mandatory Prometheus families and /events serves
// the journal with ?since and jsonl support.
func TestServerMetricsAndEvents(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}

	spec := tinySpec()
	spec.CheckpointEvery = 2
	st, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	c, _ := m.Get(st.ID)
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := string(body)
	for _, family := range []string{
		"fleetd_cells_computed_total",
		"fleetd_cells_reused_total",
		"fleetd_device_days_total",
		"fleetd_device_days_per_second",
		"fleetd_checkpoint_bytes_total",
		"fleetd_checkpoint_writes_total",
		"fleetd_checkpoint_fsync_seconds",
		"fleetd_campaign_submits_total",
		"fleetd_campaign_resumes_total",
		"fleetd_campaign_forks_total",
		"fleetd_http_requests_total",
		"fleetd_http_request_seconds",
		"fleetd_http_panics_total",
	} {
		if !strings.Contains(text, "# TYPE "+family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// The campaign ran 3 epochs (5 days, every=2): counted, not reused.
	if !strings.Contains(text, "fleetd_cells_computed_total 3") {
		t.Errorf("/metrics cells_computed:\n%s", text)
	}
	// dev-days = 4 devices x 5 days.
	if !strings.Contains(text, "fleetd_device_days_total 20") {
		t.Errorf("/metrics device_days:\n%s", text)
	}

	evs, err := cl.Events(st.ID, 0)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("no journal events after a completed campaign")
	}
	for i, e := range evs {
		if e.Seq != uint64(i)+1 {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if evs[0].Type != "submitted" || evs[len(evs)-1].Type != "done" {
		t.Errorf("journal spans %s..%s, want submitted..done", evs[0].Type, evs[len(evs)-1].Type)
	}

	// ?since pages the journal.
	tail, err := cl.Events(st.ID, evs[len(evs)-2].Seq)
	if err != nil {
		t.Fatalf("Events since: %v", err)
	}
	if len(tail) != 1 || tail[0].Seq != evs[len(evs)-1].Seq {
		t.Errorf("since query returned %d events, want the final one", len(tail))
	}

	// status carries the journal cursor.
	got, err := cl.Status(st.ID)
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if got.LastSeq != evs[len(evs)-1].Seq {
		t.Errorf("status last_seq = %d, want %d", got.LastSeq, evs[len(evs)-1].Seq)
	}

	// jsonl format: one JSON object per line, served with the standard
	// newline-delimited-JSON content type.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + st.ID + "/events?format=jsonl")
	if err != nil {
		t.Fatalf("GET events jsonl: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("jsonl Content-Type = %q, want application/x-ndjson", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(evs) {
		t.Fatalf("jsonl returned %d lines, want %d", len(lines), len(evs))
	}
	var first obs.Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Seq != 1 {
		t.Errorf("jsonl line 0 = %q (err %v)", lines[0], err)
	}
}

// TestWatchSSE subscribes to an in-flight campaign's /watch stream and
// requires live delivery: progress events arrive while the campaign runs,
// in contiguous seq order, ending with the terminal event.
func TestWatchSSE(t *testing.T) {
	m, err := NewManager(t.TempDir())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}

	spec := tinySpec()
	spec.Days = 10
	spec.CheckpointEvery = 1 // one commit per day: plenty of live events
	st, err := cl.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	errStop := fmt.Errorf("saw terminal event")
	var seen []obs.Event
	err = cl.Watch(st.ID, 0, func(e obs.Event) error {
		seen = append(seen, e)
		if e.Type == "done" || e.Type == "failed" {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("watch ended early (err %v) after %d events", err, len(seen))
	}
	if seen[len(seen)-1].Type != "done" {
		t.Fatalf("terminal event = %s, want done", seen[len(seen)-1].Type)
	}
	for i, e := range seen {
		if e.Seq != uint64(i)+1 {
			t.Fatalf("stream event %d: seq %d, want %d", i, e.Seq, i+1)
		}
	}
	counts := map[string]int{}
	for _, e := range seen {
		counts[e.Type]++
	}
	if counts["epoch_committed"] != 10 {
		t.Errorf("saw %d epoch_committed events, want 10", counts["epoch_committed"])
	}
	if counts["checkpoint_written"] != 10 {
		t.Errorf("saw %d checkpoint_written events, want 10", counts["checkpoint_written"])
	}
	if counts["submitted"] != 1 || counts["done"] != 1 {
		t.Errorf("lifecycle counts = %v", counts)
	}

	// Reconnect with ?since= replays only the tail.
	mid := seen[len(seen)/2].Seq
	var tail []obs.Event
	err = cl.Watch(st.ID, mid, func(e obs.Event) error {
		tail = append(tail, e)
		if e.Type == "done" {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("reconnect watch: %v", err)
	}
	if tail[0].Seq != mid+1 {
		t.Errorf("reconnect replay starts at seq %d, want %d", tail[0].Seq, mid+1)
	}
}
