package android

import (
	"time"
)

// IOStats is the per-app I/O accounting §4.5 proposes exposing "much like
// the cellular data usage".
type IOStats struct {
	BytesWritten int64
	BytesRead    int64
	WriteOps     int64
	ReadOps      int64
	SyncOps      int64
}

// appRecord is everything the OS tracks about one installed app: its I/O
// accounting and what each monitor has seen of it. The app's sandbox holds
// a pointer to it, so accounting an operation is a few field updates.
type appRecord struct {
	name      string
	io        IOStats
	joules    float64       // energy the power monitor attributes
	lastIO    time.Duration // simulated time of the most recent I/O
	didIO     bool          // lastIO is set
	sightings int64         // screen-on samples that caught the app active
}

// appTable holds a phone's app records in install order, indexed by name
// for the accessors.
type appTable struct {
	order  []*appRecord
	byName map[string]*appRecord
}

// get returns the named app's record; an app that is not installed reads
// as zero.
func (t *appTable) get(name string) appRecord {
	if r := t.byName[name]; r != nil {
		return *r
	}
	return appRecord{}
}

// PowerMonitor models Android's battery accounting: it attributes energy to
// apps for their I/O, but — as §4.4 observes — only while the phone is on
// battery. Running I/O while charging is therefore invisible to it.
type PowerMonitor struct {
	// JoulesPerGiB is the marginal energy the monitor attributes per GiB
	// of app I/O while discharging.
	JoulesPerGiB float64
	apps         *appTable
}

// record attributes an app's I/O; charging I/O is not recorded.
func (m *PowerMonitor) record(r *appRecord, bytes int64, charging bool) {
	if charging {
		return
	}
	r.joules += m.JoulesPerGiB * float64(bytes) / float64(1<<30)
}

// AttributedJoules returns the energy the monitor shows for an app.
func (m *PowerMonitor) AttributedJoules(app string) float64 { return m.apps.get(app).joules }

// ProcessMonitor models the running-apps view: it refreshes roughly every
// second, and only matters while the screen is on (nobody is looking
// otherwise). An app that suspends its I/O whenever the screen lights up
// evades it (§4.4).
type ProcessMonitor struct {
	// Window is the refresh interval (the paper observed ~1 second).
	Window time.Duration
	apps   *appTable
}

// Sample takes one refresh at simulated time t with the given screen state.
func (m *ProcessMonitor) Sample(t time.Duration, screenOn bool) {
	if !screenOn {
		return
	}
	for _, r := range m.apps.order {
		if r.didIO && t-r.lastIO <= m.Window {
			r.sightings++
		}
	}
}

// ObservedCount returns how many screen-on samples caught the app active.
func (m *ProcessMonitor) ObservedCount(app string) int64 { return m.apps.get(app).sightings }
