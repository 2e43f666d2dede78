package fleetd

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"flashwear/internal/obs"
)

// Client is the Go-side counterpart of Server — a thin wrapper the
// fleetd CLI's client mode drives. Errors from the API surface as
// *APIError carrying the HTTP status.
//
// Requests are resilient by default: each attempt runs under a
// per-request timeout, and transport errors, 5xx, and 429 responses are
// retried with capped, jittered backoff. Mutating requests carry a fresh
// Idempotency-Key for all their attempts, so a retry after an ambiguous
// failure (timeout after the server committed) replays the original
// outcome instead of double-executing. Other 4xx responses are never
// retried — the request itself is wrong.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:7070".
	BaseURL string
	// Timeout bounds each attempt (not the whole retry loop). Zero means
	// 60s; the streaming Watch is exempt.
	Timeout time.Duration
	// Retry paces re-attempts. The zero value means 3 attempts; set
	// Attempts to 1 to disable retries.
	Retry obs.Backoff
}

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("fleetd: server: %s (HTTP %d)", e.Message, e.StatusCode)
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 60 * time.Second
}

func (c *Client) retry() obs.Backoff {
	b := c.Retry
	if b.Attempts < 1 {
		b.Attempts = 3
	}
	return b
}

// newIdempotencyKey draws a random key binding a mutating request's
// attempts together. Entropy comes from crypto/rand: this is a protocol
// nonce, not simulation randomness, so the seeded-RNG rules don't apply.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Ambient entropy unavailable: send no key rather than a
		// colliding one; the request simply loses retry-dedup.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// retryableStatus reports whether a response status is worth retrying:
// the server or an intermediary failed (5xx) or asked for pacing (429),
// as opposed to the request being wrong (other 4xx).
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// do issues a request, retrying per the client policy, and returns the
// response body on 2xx.
func (c *Client) do(method, path string, body any) ([]byte, error) {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return nil, err
		}
	}
	idemKey := ""
	if method != http.MethodGet && method != http.MethodHead {
		idemKey = newIdempotencyKey()
	}
	var out []byte
	err := c.retry().Retry(func(int) (bool, error) {
		var retryable bool
		var err error
		out, retryable, err = c.attempt(method, path, raw, body != nil, idemKey)
		return retryable, err
	})
	return out, err
}

// attempt is one bounded request/response cycle.
func (c *Client) attempt(method, path string, body []byte, hasBody bool, idemKey string) (raw []byte, retryable bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	var rd io.Reader
	if hasBody {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, false, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// Transport failure or timeout: ambiguous, safe to retry thanks to
		// the idempotency key.
		return nil, true, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode/100 != 2 {
		var ae apiError
		msg := string(raw)
		if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		return nil, retryableStatus(resp.StatusCode), &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	return raw, false, nil
}

func (c *Client) getJSON(path string, out any) error {
	raw, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

func (c *Client) postJSON(path string, body any, out any) error {
	raw, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func campaignPath(id string, suffix string) string {
	return "/v1/campaigns/" + url.PathEscape(id) + suffix
}

// Submit submits a campaign and returns its initial status.
func (c *Client) Submit(spec CampaignSpec) (Status, error) {
	var st Status
	err := c.postJSON("/v1/campaigns", spec, &st)
	return st, err
}

// List returns every campaign's status.
func (c *Client) List() ([]Status, error) {
	var out []Status
	err := c.getJSON("/v1/campaigns", &out)
	return out, err
}

// Status returns one campaign's status.
func (c *Client) Status(id string) (Status, error) {
	var st Status
	err := c.getJSON(campaignPath(id, ""), &st)
	return st, err
}

// SeriesCSV returns the committed day series as CSV.
func (c *Client) SeriesCSV(id string) ([]byte, error) {
	return c.do(http.MethodGet, campaignPath(id, "/series"), nil)
}

// LedgerCSV returns the point-in-time wear ledger as CSV.
func (c *Client) LedgerCSV(id string) ([]byte, error) {
	return c.do(http.MethodGet, campaignPath(id, "/ledger"), nil)
}

// Result returns the final aggregate; an *APIError with status 409 means
// the campaign is still running.
func (c *Client) Result(id string) (*Aggregate, error) {
	var agg Aggregate
	if err := c.getJSON(campaignPath(id, "/result"), &agg); err != nil {
		return nil, err
	}
	return &agg, nil
}

// Pause pauses a campaign.
func (c *Client) Pause(id string) (Status, error) {
	var st Status
	err := c.postJSON(campaignPath(id, "/pause"), nil, &st)
	return st, err
}

// Resume resumes a paused campaign.
func (c *Client) Resume(id string) (Status, error) {
	var st Status
	err := c.postJSON(campaignPath(id, "/resume"), nil, &st)
	return st, err
}

// Fork forks a quiescent campaign and returns the fork's status.
func (c *Client) Fork(id string, opts ForkOptions) (Status, error) {
	var st Status
	err := c.postJSON(campaignPath(id, "/fork"), opts, &st)
	return st, err
}

// TraceStart opens a runtrace recording window on the server.
func (c *Client) TraceStart() (TraceStatus, error) {
	var st TraceStatus
	err := c.postJSON("/v1/trace/start", nil, &st)
	return st, err
}

// TraceStop closes the recording window; buffered spans stay fetchable.
func (c *Client) TraceStop() (TraceStatus, error) {
	var st TraceStatus
	err := c.postJSON("/v1/trace/stop", nil, &st)
	return st, err
}

// TraceStatus reports recording state and per-phase wall totals.
func (c *Client) TraceStatus() (TraceStatus, error) {
	var st TraceStatus
	err := c.getJSON("/v1/trace/status", &st)
	return st, err
}

// TraceChrome fetches the recorded window as Chrome trace-event JSON.
func (c *Client) TraceChrome() ([]byte, error) {
	return c.do(http.MethodGet, "/v1/trace", nil)
}

// Events returns the campaign's journal events with Seq > since.
func (c *Client) Events(id string, since uint64) ([]obs.Event, error) {
	var out []obs.Event
	err := c.getJSON(campaignPath(id, "/events?since="+strconv.FormatUint(since, 10)), &out)
	return out, err
}

// Watch subscribes to the campaign's SSE stream from since and calls fn
// for each event until the stream ends or fn returns an error. A nil
// return means the server closed the stream (campaign journal fan-out
// buffer overrun or shutdown) — the caller may reconnect from the last
// seen Seq.
func (c *Client) Watch(id string, since uint64, fn func(obs.Event) error) error {
	req, err := http.NewRequest(http.MethodGet,
		c.BaseURL+campaignPath(id, "/watch?since="+strconv.FormatUint(since, 10)), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		var ae apiError
		if json.Unmarshal(raw, &ae) == nil && ae.Error != "" {
			return &APIError{StatusCode: resp.StatusCode, Message: ae.Error}
		}
		return &APIError{StatusCode: resp.StatusCode, Message: string(raw)}
	}
	// Minimal SSE parse: collect data: lines until a blank line ends the
	// frame, then decode the frame's JSON payload.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				var e obs.Event
				if err := json.Unmarshal(data, &e); err != nil {
					return fmt.Errorf("fleetd: watch: bad event payload: %w", err)
				}
				if err := fn(e); err != nil {
					return err
				}
				data = data[:0]
			}
		case len(line) >= 5 && line[:5] == "data:":
			data = append(data, bytes.TrimSpace([]byte(line[5:]))...)
		}
	}
	return sc.Err()
}
