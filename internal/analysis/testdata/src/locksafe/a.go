// Package a seeds locksafe's hazard — blocking under a held mutex — next
// to the sanctioned shapes: release-before-block, select with default,
// goroutines launched under a lock (which do not hold it), Cond.Wait, and
// the mutexed file fsync the journal relies on. The three lock copies at
// the top are stock `go vet` copylocks findings, not locksafe's: the
// analyzer must stay silent on them.
package a

import (
	"os"
	"sync"
	"time"
)

type registry struct {
	mu    sync.Mutex
	cells map[string]int
	subs  chan string
}

// Snapshot copies the lock with every call.
func (r registry) Snapshot() int {
	return len(r.cells)
}

// Merge copies the lock through a parameter.
func Merge(dst *registry, src registry) {
	_ = src
}

// Wrapped locks nested one struct deep still count.
type wrapped struct{ inner registry }

func (w wrapped) Count() int {
	return len(w.inner.cells)
}

// Publish blocks on a channel send with the lock held.
func (r *registry) Publish(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs <- name // want `channel send while holding r\.mu`
}

// PublishSafe releases first: clean.
func (r *registry) PublishSafe(name string) {
	r.mu.Lock()
	r.cells[name]++
	r.mu.Unlock()
	r.subs <- name
}

// PublishAsync launches a goroutine: the goroutine does not hold the
// caller's lock, so its send is clean.
func (r *registry) PublishAsync(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() { r.subs <- name }()
}

// Drain receives with the lock held.
func (r *registry) Drain() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return <-r.subs // want `channel receive while holding r\.mu`
}

// WaitAll parks on a WaitGroup with the lock held.
func (r *registry) WaitAll(wg *sync.WaitGroup) {
	r.mu.Lock()
	wg.Wait() // want `sync\.WaitGroup\.Wait while holding r\.mu`
	r.mu.Unlock()
}

// Backoff sleeps with the lock held.
func (r *registry) Backoff() {
	r.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding r\.mu`
	r.mu.Unlock()
}

// Select blocks (no default) with the lock held; the polling form with a
// default cannot block and is clean.
func (r *registry) Select() {
	r.mu.Lock()
	defer r.mu.Unlock()
	select { // want `select with no default while holding r\.mu`
	case s := <-r.subs:
		_ = s
	}
}

func (r *registry) Poll() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case s := <-r.subs:
		return s, true
	default:
		return "", false
	}
}

// Relock self-deadlocks on the second acquisition.
func (r *registry) Relock() {
	r.mu.Lock()
	r.mu.Lock() // want `r\.mu\.Lock with r\.mu already held`
	r.mu.Unlock()
	r.mu.Unlock()
}

// BranchScoped: a lock released inside the branch it was taken in does
// not leak into the fall-through state.
func (r *registry) BranchScoped(fast bool) {
	if fast {
		r.mu.Lock()
		r.cells["fast"]++
		r.mu.Unlock()
	}
	r.subs <- "done"
}

// FsyncUnderLock is the journal pattern: plain file IO under a mutex is
// bounded and deliberate — locksafe stays silent.
func (r *registry) FsyncUnderLock(f *os.File) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := f.Write([]byte("entry")); err != nil {
		return err
	}
	return f.Sync()
}

// CondWait is specified to be called with the lock held: clean.
func CondWait(c *sync.Cond, ready *bool) {
	c.L.Lock()
	for !*ready {
		c.Wait()
	}
	c.L.Unlock()
}

// RangeChan ranges over a channel with the lock held.
func (r *registry) RangeChan() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for s := range r.subs { // want `range over channel while holding r\.mu`
		_ = s
	}
}

// Waived: a reviewed blocking window may be silenced like any finding.
func (r *registry) WaivedSend(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.subs <- name //flashvet:ignore locksafe fixture: buffered channel sized to subscriber count, reviewed
}
