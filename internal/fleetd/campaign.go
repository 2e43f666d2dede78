package fleetd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flashwear/internal/fleet"
	"flashwear/internal/hostio"
	"flashwear/internal/obs"
	"flashwear/internal/runtrace"
	"flashwear/internal/wtrace"
)

// State is a campaign's lifecycle phase.
type State string

const (
	// StateRunning: the sweep goroutine is advancing epochs.
	StateRunning State = "running"
	// StatePaused: no sweep is active; Resume restarts the idempotent
	// sweep, which reuses every completed cell.
	StatePaused State = "paused"
	// StateDone: the horizon is complete and the final aggregate is set.
	StateDone State = "done"
	// StateFailed: the sweep hit a non-recoverable error (see Err).
	StateFailed State = "failed"
)

// Manager owns the campaigns of one fleetd instance. With a data
// directory it persists every campaign's spec and checkpoint cells there
// and adopts them back (paused) on restart; with an empty data directory
// campaigns are in-memory only — still pausable, but a pause discards
// epoch progress and fork is unavailable.
type Manager struct {
	dataDir   string
	fs        hostio.FS
	ckptRetry obs.Backoff
	metrics   *Metrics
	trace     *runtrace.Tracer

	mu        sync.Mutex
	logger    *obs.Logger
	nextID    int
	campaigns []*Campaign // sorted by ID
}

var campaignIDRe = regexp.MustCompile(`^c(\d{6})$`)

// errRunning rejects operations that need a quiescent campaign.
var errRunning = errors.New("campaign is running; pause it first")

// campaignFile is the on-disk spec record, <dir>/campaign.json.
type campaignFile struct {
	Spec CampaignSpec `json:"spec"`
}

// Options configures a Manager beyond the data directory.
type Options struct {
	// DataDir persists campaign specs and checkpoint cells; empty means
	// in-memory campaigns only.
	DataDir string
	// FS is the host filesystem seam every byte of campaign state goes
	// through — checkpoint cells, campaign specs, event journals. Nil
	// means the real host filesystem; tests and the -host-fault-plan flag
	// install a hostio.FaultFS here.
	FS hostio.FS
	// CheckpointRetry paces checkpoint-write retries before a shard
	// degrades to in-memory carry. The zero value defaults to 3 attempts.
	CheckpointRetry obs.Backoff
}

// NewManager creates a manager over the real host filesystem. A non-empty
// dataDir is created if needed and scanned for existing campaigns, which
// are adopted in StatePaused — restart never silently burns CPU; the
// operator resumes explicitly.
func NewManager(dataDir string) (*Manager, error) {
	return NewManagerOpts(Options{DataDir: dataDir})
}

// NewManagerOpts creates a manager with explicit host-I/O and retry
// policy. Adoption is self-healing: orphaned checkpoint .tmp files (a
// crash mid-write) are swept away, and a campaign directory whose
// campaign.json is missing or garbled is skipped — its ID is still
// retired so a later submit can never collide with its leftovers.
func NewManagerOpts(opts Options) (*Manager, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = hostio.OS{}
	}
	retry := opts.CheckpointRetry
	if retry.Attempts < 1 {
		retry.Attempts = 3
	}
	m := &Manager{dataDir: opts.DataDir, fs: fsys, ckptRetry: retry, metrics: NewMetrics(), nextID: 1}
	// The tracer is always on for phase totals (its observer feeds the
	// fleetd_phase_seconds histograms); span recording is opt-in via
	// /v1/trace/start or the -trace flag.
	m.trace = runtrace.New(m.metrics.ObservePhase)
	if m.dataDir == "" {
		return m, nil
	}
	if err := fsys.MkdirAll(m.dataDir, 0o755); err != nil {
		return nil, err
	}
	//flashvet:ignore wallclock adoption lists the data directory to find campaigns; what it finds is sorted by ID before use
	entries, err := fsys.ReadDir(m.dataDir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		match := campaignIDRe.FindStringSubmatch(e.Name())
		if !e.IsDir() || match == nil {
			continue
		}
		// Retire the ID first: even an unadoptable directory must never be
		// reused by a fresh submit.
		if n, err := strconv.Atoi(match[1]); err == nil && n >= m.nextID {
			m.nextID = n + 1
		}
		dir := filepath.Join(m.dataDir, e.Name())
		swept, err := sweepTmpFiles(fsys, dir)
		if err != nil {
			return nil, fmt.Errorf("fleetd: adopting %s: %w", e.Name(), err)
		}
		raw, err := fsys.ReadFile(filepath.Join(dir, "campaign.json"))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // a submit died before persisting its spec
			}
			return nil, fmt.Errorf("fleetd: adopting %s: %w", e.Name(), err)
		}
		var cf campaignFile
		if err := json.Unmarshal(raw, &cf); err != nil {
			continue // garbled spec: leave the directory alone, skip it
		}
		c, err := m.newCampaign(e.Name(), cf.Spec)
		if err != nil {
			return nil, fmt.Errorf("fleetd: adopting %s: %w", e.Name(), err)
		}
		m.campaigns = append(m.campaigns, c)
		if _, err := c.appendEvent(obs.Event{Type: "adopted", Detail: "found in data directory on startup"}); err != nil {
			return nil, err
		}
		if swept > 0 {
			if _, err := c.appendEvent(obs.Event{Type: "tmp_swept",
				Detail: fmt.Sprintf("removed %d orphaned checkpoint .tmp file(s)", swept)}); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(m.campaigns, func(i, j int) bool { return m.campaigns[i].id < m.campaigns[j].id })
	return m, nil
}

// sweepTmpFiles removes orphaned checkpoint temporaries under one
// campaign directory — the residue of a process killed mid-write. The
// writer only ever renames a fully-synced file into place, so every .tmp
// is garbage by construction.
func sweepTmpFiles(fsys hostio.FS, campaignDir string) (int, error) {
	//flashvet:ignore wallclock the .tmp sweep lists host directories to delete garbage; only the removed count reaches the journal
	entries, err := fsys.ReadDir(campaignDir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		sub := filepath.Join(campaignDir, e.Name())
		//flashvet:ignore wallclock the .tmp sweep lists host directories to delete garbage; only the removed count reaches the journal
		files, err := fsys.ReadDir(sub)
		if err != nil {
			return removed, err
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".tmp") {
				continue
			}
			if err := fsys.Remove(filepath.Join(sub, f.Name())); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}

// Metrics exposes the manager's ops-domain registry and instruments.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// Trace exposes the manager's execution tracer (DESIGN.md §14): always
// accumulating per-phase totals, recording spans only while a window is
// open.
func (m *Manager) Trace() *runtrace.Tracer { return m.trace }

// Logger returns the installed structured logger (nil means silent).
func (m *Manager) Logger() *obs.Logger {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logger
}

// SetLogger installs a structured logger for the manager and every
// campaign journal (existing and future). Call before serving traffic.
func (m *Manager) SetLogger(l *obs.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.logger = l
	for _, c := range m.campaigns {
		c.journal.Logger = l
	}
}

// newCampaign builds the in-memory object (no goroutine, StatePaused).
func (m *Manager) newCampaign(id string, spec CampaignSpec) (*Campaign, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fspec, err := spec.FleetSpec()
	if err != nil {
		return nil, err
	}
	c := &Campaign{mgr: m, id: id, spec: spec, fspec: fspec, state: StatePaused}
	if m.dataDir != "" {
		c.dir = filepath.Join(m.dataDir, id)
	}
	c.series = &DaySeries{}
	c.agg = newAggregate()
	journalPath := ""
	if c.dir != "" {
		journalPath = filepath.Join(c.dir, "events.jsonl")
	}
	j, err := obs.OpenJournalFS(m.fs, journalPath)
	if err != nil {
		return nil, err
	}
	j.Logger = m.logger
	j.Tag = id
	c.journal = j
	c.alerts = newAlertState()
	c.alerts.seed(j.Events(0))
	return c, nil
}

// Submit validates a spec, persists it (when a data directory is
// configured), and starts the campaign. The spec is durable before the
// campaign is registered or acknowledged: once Submit returns nil, a kill
// -9 at any later instant leaves a directory the next process adopts — an
// acknowledged submit is never lost. Conversely a failed Submit registers
// nothing, and its directory (with no campaign.json) is skipped on
// adoption, so a client may simply retry.
func (m *Manager) Submit(spec CampaignSpec) (*Campaign, error) {
	m.mu.Lock()
	id := fmt.Sprintf("c%06d", m.nextID)
	c, err := m.newCampaign(id, spec)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	m.mu.Unlock()

	if c.dir != "" {
		if err := m.writeCampaignFile(c.dir, c.spec); err != nil {
			return nil, err
		}
	}
	m.register(c)
	m.metrics.Submits.Inc()
	if _, err := c.appendEvent(obs.Event{Type: "submitted", Detail: c.spec.Name}); err != nil {
		return nil, err
	}
	c.start()
	return c, nil
}

// register adds a fully-persisted campaign to the serving set. Concurrent
// submits may finish persisting out of ID order, so the slice is re-sorted.
func (m *Manager) register(c *Campaign) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.campaigns = append(m.campaigns, c)
	sort.Slice(m.campaigns, func(i, j int) bool { return m.campaigns[i].id < m.campaigns[j].id })
}

func (m *Manager) writeCampaignFile(dir string, spec CampaignSpec) error {
	if err := m.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(campaignFile{Spec: spec}, "", "  ")
	if err != nil {
		return err
	}
	return m.fs.WriteFile(filepath.Join(dir, "campaign.json"), append(raw, '\n'), 0o644)
}

// Get returns a campaign by ID.
func (m *Manager) Get(id string) (*Campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.campaigns {
		if c.id == id {
			return c, true
		}
	}
	return nil, false
}

// List returns the campaigns sorted by ID.
func (m *Manager) List() []*Campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Campaign(nil), m.campaigns...)
}

// ForkOptions selects what a fork overrides. Zero values keep the source
// campaign's settings. Only future-facing knobs may change: the forked
// campaign shares the source's completed epochs byte-for-byte, so any
// knob that would invalidate them (seed, population, scale, class mix)
// is not forkable — submit a new campaign instead.
type ForkOptions struct {
	// Name labels the fork.
	Name string `json:"name,omitempty"`
	// Days extends (or shrinks) the horizon; 0 keeps the source horizon.
	Days int `json:"days,omitempty"`
	// Faults, when non-nil, replaces the fault plan for epochs the fork
	// computes itself (completed epochs keep the history they were
	// computed under — that shared past is the point of a fork).
	Faults *string `json:"faults,omitempty"`
}

// Fork clones a paused or finished campaign into a new one: the spec
// (with opts applied) is re-submitted, every completed cell whose epoch
// grid is unchanged is copied over, and the new campaign's sweep resumes
// from there — a counterfactual future on a shared past.
func (m *Manager) Fork(id string, opts ForkOptions) (*Campaign, error) {
	if m.dataDir == "" {
		return nil, errors.New("fleetd: fork requires a data directory")
	}
	src, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("fleetd: fork: no campaign %q", id)
	}
	switch src.State() {
	case StatePaused, StateDone, StateFailed:
	default:
		return nil, fmt.Errorf("fleetd: fork: campaign %s: %w", id, errRunning)
	}
	spec := src.spec
	if opts.Name != "" {
		spec.Name = opts.Name
	}
	if opts.Days != 0 {
		spec.Days = opts.Days
	}
	if opts.Faults != nil {
		spec.Faults = *opts.Faults
	}

	m.mu.Lock()
	newID := fmt.Sprintf("c%06d", m.nextID)
	dst, err := m.newCampaign(newID, spec)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.nextID++
	m.mu.Unlock()

	if err := m.writeCampaignFile(dst.dir, dst.spec); err != nil {
		return nil, err
	}
	if err := copyCells(src, dst); err != nil {
		return nil, err
	}
	m.register(dst)
	m.metrics.Forks.Inc()
	if _, err := dst.appendEvent(obs.Event{Type: "forked", Detail: "from " + src.id}); err != nil {
		return nil, err
	}
	dst.start()
	return dst, nil
}

// copyCells re-stamps every copyable completed cell of src into dst's
// directory. A cell is copyable when its epoch covers the same global day
// range under both horizons (the final, clamped epoch of a differing
// horizon is not) and it is not dst's final epoch (whose footer must
// carry the survivor fold, which only dst's own sweep can produce).
// Device frames re-encode byte-identically, so a copied cell is
// indistinguishable from one dst computed itself.
func copyCells(src, dst *Campaign) error {
	oldDays, newDays := src.spec.Days, dst.spec.Days
	oldE, newE := src.epochLen(), dst.epochLen()
	newEpochs := epochCount(newE, newDays)
	for e := 1; e <= epochCount(oldE, oldDays); e++ {
		oldLo, oldHi := epochDays(e, oldE, oldDays)
		newLo, newHi := epochDays(e, newE, newDays)
		if e > newEpochs || oldLo != newLo || oldHi != newHi {
			continue
		}
		if e == newEpochs && oldDays != newDays {
			continue
		}
		for s := 0; s < src.spec.Shards; s++ {
			if err := restampCell(src, dst, s, e, e == newEpochs); err != nil {
				if errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCheckpointTruncated) {
					continue // cell not completed; dst's sweep recomputes it
				}
				return err
			}
		}
	}
	return nil
}

// restampCell copies one (shard, epoch) cell from src to dst, rewriting
// the identity header for dst's horizon.
func restampCell(src, dst *Campaign, shard, epoch int, final bool) error {
	r, err := openCell(src.mgr.fs, cellPath(src.dir, shard, epoch))
	if err != nil {
		return err
	}
	defer r.Close()
	hdr := r.Header
	hdr.Days = dst.spec.Days
	w, err := newCkptWriter(dst.mgr.fs, cellPath(dst.dir, shard, epoch), hdr)
	if err != nil {
		return err
	}
	ft, err := r.scan(w.writeDevice)
	if err != nil {
		w.abort()
		return err
	}
	if !final {
		ft.Final = nil
	}
	return w.finish(ft)
}

// Campaign is one managed fleet run. All public methods are safe for
// concurrent use.
type Campaign struct {
	mgr   *Manager
	id    string
	dir   string // "" for in-memory campaigns
	spec  CampaignSpec
	fspec fleet.Spec

	// journal and alerts are owned by the campaign for its whole life;
	// journal is internally synchronized, alerts is touched only by the
	// single sweep goroutine (plus seeding before any sweep starts).
	journal *obs.Journal
	alerts  *alertState

	// drain asks the sweep to stop at the next cell boundary (graceful
	// shutdown); cleared when a sweep starts.
	drain atomic.Bool

	mu      sync.Mutex
	state   State
	err     error
	cancel  context.CancelFunc
	runDone chan struct{}
	// ckptPaused marks degraded mode: at least one shard's checkpoint
	// write has exhausted its retry budget and that shard's states are
	// carried in memory. The campaign keeps simulating; checkpointing
	// resumes automatically once writes succeed again.
	ckptPaused bool

	// Committed progress: the fleet-level series over completed epochs,
	// the cumulative dead-device aggregate, the point-in-time ledger, and
	// the final aggregate once done. len(series.Rows) is days completed.
	series *DaySeries
	agg    *Aggregate
	ledger wtrace.Snapshot
	final  *Aggregate
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.id }

// Spec returns the submitted (defaulted) spec.
func (c *Campaign) Spec() CampaignSpec { return c.spec }

// epochLen is the effective epoch length in days: CheckpointEvery when a
// data directory backs the campaign, otherwise one epoch spans the whole
// horizon (there is nowhere to store intermediate states).
func (c *Campaign) epochLen() int {
	if c.dir == "" || c.spec.CheckpointEvery <= 0 || c.spec.CheckpointEvery >= c.spec.Days {
		return c.spec.Days
	}
	return c.spec.CheckpointEvery
}

// start launches the sweep goroutine.
func (c *Campaign) start() {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	c.drain.Store(false)
	c.mu.Lock()
	c.state = StateRunning
	c.err = nil
	c.cancel = cancel
	c.runDone = done
	c.mu.Unlock()
	go func() {
		defer close(done)
		err := c.sweep(ctx)
		c.mu.Lock()
		switch {
		case err == nil:
			c.state = StateDone
		case errors.Is(err, context.Canceled):
			c.state = StatePaused
		default:
			c.state = StateFailed
			c.err = err
		}
		st := c.state
		c.mu.Unlock()
		switch st {
		case StateDone:
			c.appendEvent(obs.Event{Type: "done"})
		case StatePaused:
			c.appendEvent(obs.Event{Type: "paused"})
		case StateFailed:
			c.appendEvent(obs.Event{Type: "failed", Detail: err.Error()})
		}
	}()
}

// appendEvent journals e for this campaign. Journal failures on the ops
// plane are real durability failures (the journal shares the campaign's
// data directory), so callers in the sweep path propagate them.
func (c *Campaign) appendEvent(e obs.Event) (obs.Event, error) {
	// Journal appends fsync; bill them to the journal phase. The journal
	// is campaign-level work, so the span renders on the campaign track
	// regardless of which cell produced the event.
	sp := c.mgr.trace.Begin(runtrace.PhaseJournal, -1, e.Epoch, -1)
	defer sp.End()
	return c.journal.Append(e)
}

// Events returns the journaled events with Seq > since.
func (c *Campaign) Events(since uint64) []obs.Event {
	return c.journal.Events(since)
}

// Journal exposes the campaign's event journal (for subscriptions).
func (c *Campaign) Journal() *obs.Journal { return c.journal }

// Pause cancels the sweep and waits for it to stop. The sweep checks for
// cancellation between device-epochs, so an in-flight cell is abandoned
// (its .tmp file discarded) and recomputed on resume. Pausing a finished
// campaign is a no-op.
func (c *Campaign) Pause() {
	c.mu.Lock()
	cancel, done := c.cancel, c.runDone
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
}

// Drain asks a running sweep to stop at the next cell boundary without
// waiting — the graceful-shutdown half of Pause. The sweep exits as
// paused (every completed cell is already durable, so nothing is lost);
// use Wait to block until it has. Draining a quiescent campaign is a
// no-op.
func (c *Campaign) Drain() {
	c.drain.Store(true)
}

// Resume restarts a paused campaign's sweep. Completed cells are reused,
// so resuming costs only the probe pass plus whatever is genuinely left.
func (c *Campaign) Resume() error {
	c.mu.Lock()
	st := c.state
	c.mu.Unlock()
	switch st {
	case StatePaused:
		c.mgr.metrics.Resumes.Inc()
		if _, err := c.appendEvent(obs.Event{Type: "resumed"}); err != nil {
			return err
		}
		c.start()
		return nil
	case StateRunning:
		return nil
	default:
		return fmt.Errorf("fleetd: campaign %s is %s, not paused", c.id, st)
	}
}

// Wait blocks until the current sweep (if any) exits and returns the
// campaign's error state.
func (c *Campaign) Wait() error {
	c.mu.Lock()
	done := c.runDone
	c.mu.Unlock()
	if done != nil {
		<-done
	}
	return c.Err()
}

// State returns the lifecycle phase.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Err returns the failure cause when State is StateFailed.
func (c *Campaign) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Status is a point-in-time progress summary.
type Status struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	Devices  int    `json:"devices"`
	Days     int    `json:"days"`
	DaysDone int    `json:"days_done"`
	Shards   int    `json:"shards"`
	Bricked  int64  `json:"bricked"`
	ReadOnly int64  `json:"read_only"`
	// CheckpointPaused reports degraded mode: the campaign is simulating
	// but at least one shard cannot persist checkpoints (full or failing
	// disk) and is carrying its states in memory instead.
	CheckpointPaused bool `json:"checkpoint_paused,omitempty"`
	// LastSeq is the campaign journal's highest event sequence number,
	// the cursor a client passes as ?since= to tail new events.
	LastSeq uint64 `json:"last_seq"`
}

// Status returns the progress summary.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:      c.id,
		Name:    c.spec.Name,
		State:   c.state,
		Devices: c.spec.Devices,
		Days:    c.spec.Days,
		Shards:  c.spec.Shards,
	}
	if c.err != nil {
		st.Error = c.err.Error()
	}
	st.CheckpointPaused = c.ckptPaused
	st.DaysDone = len(c.series.Rows)
	if n := len(c.series.Rows); n > 0 {
		st.Bricked = c.series.Rows[n-1][fleet.ColBricked]
		st.ReadOnly = c.series.Rows[n-1][fleet.ColReadOnly]
	}
	st.LastSeq = c.journal.LastSeq()
	return st
}

// Series returns a deep copy of the committed day series.
func (c *Campaign) Series() *DaySeries {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.series.clone()
}

// Aggregate returns the campaign's terminal aggregate and whether it is
// final. Before completion it covers only devices that already died.
func (c *Campaign) Aggregate() (*Aggregate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.final != nil {
		return c.final.clone(), true
	}
	return c.agg.clone(), false
}

// Ledger returns the committed point-in-time fleet wear ledger (dead
// plus live devices, full-scale volumes).
func (c *Campaign) Ledger() wtrace.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s wtrace.Snapshot
	s.Merge(c.ledger)
	return s
}

// sweep is the idempotent run loop: for each epoch, for each shard,
// reuse the cell if its checkpoint is valid, otherwise recompute it from
// the previous epoch's states; then commit the epoch fleet-wide. Fresh
// starts, crash recovery, resume, and fork all take this exact path.
//
// Checkpoint host-I/O failures never stop the sweep: a cell whose write
// keeps failing after the retry budget is computed anyway with its
// end-of-epoch device states carried in memory (degraded,
// "checkpointing-paused" mode), and every subsequent epoch tries to
// persist again, so the campaign heals itself the moment the disk does.
// The memory carry lives only within one sweep — after a crash or pause
// the resumed sweep recomputes the unpersisted epochs from the last
// durable cells, which yields byte-identical results by the determinism
// contract.
func (c *Campaign) sweep(ctx context.Context) error {
	days := c.spec.Days
	every := c.epochLen()
	shards := c.spec.Shards
	epochs := epochCount(every, days)

	c.mu.Lock()
	c.series = &DaySeries{}
	c.agg = newAggregate()
	c.ledger = wtrace.Snapshot{}
	c.final = nil
	c.ckptPaused = false
	c.mu.Unlock()
	c.mgr.metrics.CheckpointDegraded.Set(0)

	var prev []*epochFooter
	// prevMem holds, per shard, the device states at the end of epoch e-1
	// for shards whose cell write failed there; curMem collects the same
	// for the epoch in flight.
	var prevMem map[int][]*deviceState
	for e := 1; e <= epochs; e++ {
		cur := make([]*epochFooter, shards)
		curMem := make(map[int][]*deviceState)
		for s := 0; s < shards; s++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if c.drain.Load() {
				return context.Canceled
			}
			var prevFt *epochFooter
			if prev != nil {
				prevFt = prev[s]
			}
			if c.dir != "" {
				lo, hi := epochDays(e, every, days)
				want := fileHeader{
					Seed: c.fspec.Seed, Devices: c.fspec.Devices, Days: days,
					Shard: s, Epoch: e, DayLo: lo, DayHi: hi,
				}
				ft, err := loadFooter(c.mgr.fs, cellPath(c.dir, s, e), want)
				ok, err := cellUsable(ft, err)
				if err != nil {
					return err
				}
				// The final epoch's footer must carry the survivor fold; a
				// restamped cell from a shorter fork source does not.
				if ok && e == epochs && ft.Final == nil {
					ok = false
				}
				if ok {
					c.mgr.metrics.CellsReused.Inc()
					if _, err := c.appendEvent(obs.Event{Type: "cell_reused", Shard: s, Epoch: e}); err != nil {
						return err
					}
					cur[s] = ft
					continue
				}
			}
			ft, err := c.durableShardEpoch(ctx, s, e, prevFt, prevMem[s], curMem)
			if err != nil {
				return err
			}
			c.mgr.metrics.CellsComputed.Inc()
			if _, err := c.appendEvent(obs.Event{Type: "cell_computed", Shard: s, Epoch: e}); err != nil {
				return err
			}
			cur[s] = ft
		}
		if err := c.commitEpoch(cur, e == epochs); err != nil {
			return err
		}
		if len(curMem) == 0 && c.checkpointPaused() {
			c.setCheckpointPaused(false)
			if _, err := c.appendEvent(obs.Event{Type: "checkpoint_resumed", Epoch: e,
				Detail: "checkpoint writes succeeding again; durable state is catching up"}); err != nil {
				return err
			}
		}
		prev = cur
		prevMem = curMem
	}
	return nil
}

func (c *Campaign) checkpointPaused() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ckptPaused
}

func (c *Campaign) setCheckpointPaused(v bool) {
	c.mu.Lock()
	c.ckptPaused = v
	c.mu.Unlock()
	if v {
		c.mgr.metrics.CheckpointDegraded.Set(1)
	} else {
		c.mgr.metrics.CheckpointDegraded.Set(0)
	}
}

// durableShardEpoch computes cell (shard, epoch) and makes it durable if
// it possibly can: host-I/O failures on the checkpoint write path retry
// with capped, jittered backoff (each attempt recomputes the cell — a
// failed attempt has no complete accumulator to salvage), and when the
// budget is exhausted the cell is computed one final time with no writer
// at all, its end states parked in mem for the next epoch's producer.
// Simulation errors, corruption, and cancellation are never retried.
func (c *Campaign) durableShardEpoch(ctx context.Context, shard, epoch int, prevFt *epochFooter, prevStates []*deviceState, mem map[int][]*deviceState) (*epochFooter, error) {
	persist := c.dir != ""
	var ft *epochFooter
	if persist {
		err := c.mgr.ckptRetry.Retry(func(attempt int) (bool, error) {
			var err error
			ft, _, err = c.runShardEpoch(ctx, shard, epoch, prevFt, prevStates, true, false)
			if err != nil && errors.Is(err, errCheckpointIO) && ctx.Err() == nil {
				c.mgr.metrics.CheckpointRetries.Inc()
				return true, err
			}
			return false, err
		})
		if err == nil {
			return ft, nil
		}
		if !errors.Is(err, errCheckpointIO) || ctx.Err() != nil {
			return nil, err
		}
		// Retry budget exhausted: degrade. Compute the cell in memory and
		// alert once per outage, not once per cell.
		if !c.checkpointPaused() {
			c.setCheckpointPaused(true)
			if _, aerr := c.appendEvent(obs.Event{Type: "checkpoint_paused", Shard: shard, Epoch: epoch,
				Detail: "checkpoint writes failing after retries; campaign continues in memory: " + err.Error()}); aerr != nil {
				return nil, aerr
			}
		}
	}
	ft, states, err := c.runShardEpoch(ctx, shard, epoch, prevFt, prevStates, false, persist)
	if err != nil {
		return nil, err
	}
	if persist {
		mem[shard] = states
	}
	return ft, nil
}

// loadFooter's identity header for cell (s, e) needs the day range; the
// sweep computes it inline above. runShardEpoch computes one cell: it
// streams the shard's device states from prevStates (a degraded prior
// epoch's in-memory carry), or the previous epoch's checkpoint, or births
// the population for epoch 1, through a worker pool into the cell's
// accumulator and — when persist is set — its checkpoint file. With
// capture set, every surviving device's end-of-epoch state is collected
// and returned so a degraded epoch can seed the next one from memory;
// runDeviceEpoch never mutates its input state, so a retry may feed the
// same prevStates again.
func (c *Campaign) runShardEpoch(ctx context.Context, shard, epoch int, prevFt *epochFooter, prevStates []*deviceState, persist, capture bool) (*epochFooter, []*deviceState, error) {
	spec := c.fspec
	days := c.spec.Days
	lo, hi := epochDays(epoch, c.epochLen(), days)
	devLo, devHi := shardRange(spec.Devices, c.spec.Shards, shard)
	acc := newEpochAcc(days, lo, hi, prevFt)

	var w *ckptWriter
	if persist {
		hdr := fileHeader{
			Seed: spec.Seed, Devices: spec.Devices, Days: days,
			Shard: shard, Epoch: epoch,
			DevLo: devLo, DevHi: devHi, DayLo: lo, DayHi: hi,
		}
		var err error
		w, err = newCkptWriter(c.mgr.fs, cellPath(c.dir, shard, epoch), hdr)
		if err != nil {
			return nil, nil, err
		}
		w.metrics = c.mgr.metrics
		w.trace = c.mgr.trace
		w.shard, w.epoch = shard, epoch
	}

	type job struct {
		idx int
		st  *deviceState
	}
	workers := spec.Workers
	jobs := make(chan job, workers)
	var prodErr error
	go func() {
		defer close(jobs)
		switch {
		case prevStates != nil:
			for _, st := range prevStates {
				select {
				case jobs <- job{idx: st.Index, st: st}:
				case <-ctx.Done():
					return
				}
			}
			return
		case epoch == 1:
			for i := devLo; i < devHi; i++ {
				select {
				case jobs <- job{idx: i}:
				case <-ctx.Done():
					return
				}
			}
			return
		}
		r, err := openCell(c.mgr.fs, cellPath(c.dir, shard, epoch-1))
		if err != nil {
			prodErr = err
			return
		}
		defer r.Close()
		_, err = r.scan(func(st *deviceState) error {
			select {
			case jobs <- job{idx: st.Index, st: st}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			prodErr = err
		}
	}()

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var workErr error
	var captured []*deviceState
	tr := c.mgr.trace
	shardLabel := strconv.Itoa(shard)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		// Workers run under pprof labels so CPU profiles segment by the
		// same dimensions as the runtrace spans (DESIGN.md §14).
		go runtrace.Do(ctx, func(ctx context.Context) {
			defer wg.Done()
			for jb := range jobs {
				if ctx.Err() != nil {
					continue // drain
				}
				errMu.Lock()
				failed := workErr != nil
				errMu.Unlock()
				if failed {
					continue
				}
				sp := tr.Begin(runtrace.PhaseSimulate, shard, epoch, jb.idx)
				st, err := runDeviceEpoch(spec, spec.Sample(jb.idx), jb.st, acc)
				sp.End()
				if err == nil && st != nil && w != nil {
					runtrace.Do(ctx, func(context.Context) {
						sp := tr.Begin(runtrace.PhaseCheckpointEncode, shard, epoch, jb.idx)
						err = w.writeDevice(st)
						sp.End()
					}, "phase", runtrace.PhaseCheckpointEncode.String())
				}
				if err == nil && st != nil && capture {
					errMu.Lock()
					captured = append(captured, st)
					errMu.Unlock()
				}
				if err != nil {
					errMu.Lock()
					if workErr == nil {
						workErr = err
					}
					errMu.Unlock()
				}
			}
		}, "shard", shardLabel, "phase", runtrace.PhaseSimulate.String())
	}
	wg.Wait()

	err := workErr
	if err == nil {
		err = prodErr
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if w != nil {
			w.abort()
		}
		return nil, nil, err
	}
	ft, err := acc.footer(shard, epoch)
	if err != nil {
		if w != nil {
			w.abort()
		}
		return nil, nil, err
	}
	if w != nil {
		if err := w.finish(ft); err != nil {
			return nil, nil, err
		}
		if _, err := c.appendEvent(obs.Event{Type: "checkpoint_written", Shard: shard, Epoch: epoch,
			Detail: fmt.Sprintf("bytes=%d", w.bytes)}); err != nil {
			return nil, nil, err
		}
	}
	return ft, captured, nil
}

// commitEpoch merges the epoch's shard footers and publishes them: the
// epoch's day rows append to the campaign series, and the cumulative
// aggregate, ledger, and (on the last epoch) final aggregate are
// replaced. Shards merge in index order, but every merge is commutative
// anyway — the committed values are a pure function of the cell set.
func (c *Campaign) commitEpoch(footers []*epochFooter, final bool) error {
	epoch := 0
	if len(footers) > 0 {
		epoch = footers[0].Epoch
	}
	aggSp := c.mgr.trace.Begin(runtrace.PhaseAggregate, -1, epoch, -1)
	es := &DaySeries{}
	agg := newAggregate()
	var ledger wtrace.Snapshot
	var fin *Aggregate
	if final {
		fin = newAggregate()
	}
	for _, ft := range footers {
		fs := &DaySeries{Rows: ft.Rows, Wear: ft.Wear}
		if len(es.Rows) == 0 {
			es = fs.clone()
		} else if err := es.merge(fs); err != nil {
			return err
		}
		if err := agg.merge(ft.Agg); err != nil {
			return err
		}
		ledger.Merge(ft.Ledger)
		if final {
			if ft.Final == nil {
				return fmt.Errorf("fleetd: shard %d epoch %d: final epoch footer has no final aggregate", ft.Shard, ft.Epoch)
			}
			if err := fin.merge(ft.Final); err != nil {
				return err
			}
		}
	}
	c.mu.Lock()
	c.series.append(es)
	c.agg = agg
	c.ledger = ledger
	c.final = fin
	rows := c.series.Rows
	daysDone := len(rows)
	var bricked, readOnly int64
	if daysDone > 0 {
		bricked = rows[daysDone-1][fleet.ColBricked]
		readOnly = rows[daysDone-1][fleet.ColReadOnly]
	}
	c.mu.Unlock()

	// Ops-plane accounting and sim-domain alerting. The alert scan reads
	// only the committed day rows (sim domain); its findings journal as
	// Sim events and dedupe across resumes via the fired-set. rows is only
	// ever appended to and the single sweep goroutine is the only writer
	// here, so reading it outside c.mu is safe.
	devices := int64(c.spec.Devices)
	dd := int64(len(es.Rows)) * devices
	c.mgr.metrics.DeviceDays.Add(dd)
	c.mgr.metrics.DeviceRate.Add(dd)
	aggSp.End()
	alertSp := c.mgr.trace.Begin(runtrace.PhaseAlertEval, -1, epoch, -1)
	alerts := c.alerts.scan(rows, devices)
	alertSp.End()
	for _, a := range alerts {
		if _, err := c.appendEvent(a.event()); err != nil {
			return err
		}
	}
	_, err := c.appendEvent(obs.Event{Type: "epoch_committed", Day: daysDone,
		Detail: fmt.Sprintf("bricked=%d read_only=%d", bricked, readOnly)})
	return err
}
