package fleetd

import (
	"bytes"
	"net/http"
	"sync"
)

// idemStore makes the mutating endpoints safe to retry: a client that
// timed out never knows whether its POST landed, so it retries with the
// same Idempotency-Key and must get the original outcome instead of a
// second execution (a duplicate campaign, a double fork).
//
// Semantics:
//
//   - First request with a key executes the handler. A concurrent
//     duplicate (the retry raced the original) waits for it to finish
//     rather than executing again.
//   - A successful (2xx) response is recorded and replayed verbatim to
//     every later duplicate.
//   - A failed response is NOT recorded: the client saw an error, so its
//     retry deserves a fresh execution. Only the in-flight dedup applies.
//
// The store is bounded: oldest recorded keys fall off first. A replay
// after eviction re-executes, which is safe for every endpoint here —
// submit/fork create new IDs (visible duplicates, not corruption) and
// pause/resume are naturally idempotent.
type idemStore struct {
	mu    sync.Mutex
	byKey map[string]*idemEntry
	order []string // recorded keys, oldest first
}

type idemEntry struct {
	done chan struct{} // closed when the first execution finishes
	// set before done closes, immutable after:
	recorded bool
	code     int
	header   http.Header
	body     []byte
}

// idemCapacity bounds how many recorded keys the store keeps.
const idemCapacity = 1024

func newIdemStore() *idemStore {
	return &idemStore{byKey: make(map[string]*idemEntry)}
}

// begin claims key. It returns (entry, true) when the caller is the first
// executor and must call finish on the entry, or (entry, false) when
// another request already executed (or is executing) under this key and
// the caller should wait on entry.done and replay.
func (s *idemStore) begin(key string) (*idemEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byKey[key]; ok {
		return e, false
	}
	e := &idemEntry{done: make(chan struct{})}
	s.byKey[key] = e
	return e, true
}

// finish completes the first execution under key: a 2xx response is
// recorded for replay; anything else releases the key so a retry
// re-executes.
func (s *idemStore) finish(key string, e *idemEntry, code int, header http.Header, body []byte) {
	s.mu.Lock()
	if code/100 == 2 {
		e.recorded = true
		e.code = code
		e.header = header
		e.body = body
		s.order = append(s.order, key)
		for len(s.order) > idemCapacity {
			delete(s.byKey, s.order[0])
			s.order = s.order[1:]
		}
	} else {
		delete(s.byKey, key)
	}
	s.mu.Unlock()
	close(e.done)
}

// recorder buffers a handler's response so it can be both sent and
// stored.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{header: make(http.Header), code: http.StatusOK}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) { r.code = code }

func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// replay writes a stored response to w.
func (e *idemEntry) replay(w http.ResponseWriter) {
	for k, vs := range e.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(e.code)
	w.Write(e.body)
}

// idempotent wraps a mutating handler with the retry-dedup protocol.
// Requests without an Idempotency-Key header pass straight through. The
// key namespace includes method and path, so the same key on different
// endpoints never collides.
func (s *Server) idempotent(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			h(w, r)
			return
		}
		key = r.Method + " " + r.URL.Path + "\x00" + key
		e, first := s.idem.begin(key)
		if !first {
			select {
			case <-e.done:
			case <-r.Context().Done():
				return
			}
			if e.recorded {
				e.replay(w)
				return
			}
			// The original execution failed and was not recorded; this
			// retry executes freshly under its own claim.
			s.idempotent(h)(w, r)
			return
		}
		rec := newRecorder()
		h(rec, r)
		s.idem.finish(key, e, rec.code, rec.header, rec.body.Bytes())
		for k, vs := range rec.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.code)
		w.Write(rec.body.Bytes())
	}
}
