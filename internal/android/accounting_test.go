package android

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"flashwear/internal/device"
	"flashwear/internal/fs"
	"flashwear/internal/simclock"
)

// refMonitors is the map-keyed accounting the per-app records replaced:
// Phone.stats, PowerMonitor.onBattery and ProcessMonitor.lastIO/observed,
// each keyed by app name. It is the oracle the records must match.
type refMonitors struct {
	joulesPerGiB float64
	window       time.Duration
	stats        map[string]*IOStats
	onBattery    map[string]float64
	lastIO       map[string]time.Duration
	observed     map[string]int64
	samples      int64
}

func newRefMonitors() *refMonitors {
	return &refMonitors{
		joulesPerGiB: 40,
		window:       time.Second,
		stats:        make(map[string]*IOStats),
		onBattery:    make(map[string]float64),
		lastIO:       make(map[string]time.Duration),
		observed:     make(map[string]int64),
	}
}

func (m *refMonitors) install(app string) { m.stats[app] = &IOStats{} }

func (m *refMonitors) recordIO(app string, bytes int64, charging bool, t time.Duration) {
	if !charging {
		m.onBattery[app] += m.joulesPerGiB * float64(bytes) / float64(1<<30)
	}
	m.lastIO[app] = t
}

func (m *refMonitors) write(app string, n int64, charging bool, t time.Duration) {
	s := m.stats[app]
	s.BytesWritten += n
	s.WriteOps++
	m.recordIO(app, n, charging, t)
}

func (m *refMonitors) read(app string, n int64, charging bool, t time.Duration) {
	s := m.stats[app]
	s.BytesRead += n
	s.ReadOps++
	m.recordIO(app, n, charging, t)
}

func (m *refMonitors) sync(app string) {
	if s, ok := m.stats[app]; ok {
		s.SyncOps++
	}
}

func (m *refMonitors) sample(t time.Duration, screenOn bool) {
	if !screenOn {
		return
	}
	m.samples++
	for app, last := range m.lastIO {
		if t-last <= m.window {
			m.observed[app]++
		}
	}
}

func (m *refMonitors) ioStats(app string) IOStats {
	if s, ok := m.stats[app]; ok {
		return *s
	}
	return IOStats{}
}

// TestAccountingMatchesMapVersion drives a scripted mix of writes, reads,
// file syncs and whole-FS syncs from several apps across two simulated
// days — through charging and on-battery hours, screen on and off — and
// checks every accessor against the map-keyed reference fed the same
// events. Two twin apps issue identical I/O, so their records tie.
func TestAccountingMatchesMapVersion(t *testing.T) {
	for _, kind := range []FSKind{FSExt4, FSF2FS} {
		t.Run(string(kind), func(t *testing.T) {
			clock := simclock.New()
			p, err := NewPhone(Config{Profile: device.ProfileMotoE8().Scaled(512), FS: kind}, clock)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefMonitors()
			// Registered after the phone's own refresh, at the same period,
			// so both sample at the same instants.
			clock.Every(time.Second, func() { ref.sample(clock.Now(), p.ScreenOn()) })

			names := []string{"com.example.quiet", "com.example.twin.a", "com.example.twin.b", "com.example.loud", "com.example.idle"}
			files := map[string]fs.File{}
			apps := map[string]*App{}
			for _, name := range names {
				a, err := p.InstallApp(name)
				if err != nil {
					t.Fatal(err)
				}
				ref.install(name)
				apps[name] = a
				if files[name], err = a.Storage().Create("/f"); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(3))
			buf := make([]byte, 64<<10)
			active := names[:4] // the idle app never does I/O
			check := func(step int) {
				t.Helper()
				for _, name := range append(names, "com.example.unknown") {
					if got, want := p.AppIOStats(name), ref.ioStats(name); got != want {
						t.Fatalf("step %d, %s: AppIOStats = %+v, map version %+v", step, name, got, want)
					}
					if got, want := p.PowerMonitor().AttributedJoules(name), ref.onBattery[name]; got != want {
						t.Fatalf("step %d, %s: AttributedJoules = %v, map version %v", step, name, got, want)
					}
					if got, want := p.ProcessMonitor().ObservedCount(name), ref.observed[name]; got != want {
						t.Fatalf("step %d, %s: ObservedCount = %d, map version %d", step, name, got, want)
					}
				}
			}
			for step := 0; step < 600; step++ {
				targets := []string{active[rng.Intn(len(active))]}
				if strings.Contains(targets[0], ".twin.") {
					targets = names[1:3] // both twins, the same op
				}
				op, size, off := rng.Intn(10), 1+rng.Intn(len(buf)), int64(rng.Intn(8))*4096
				for _, name := range targets {
					switch {
					case op < 5:
						if n, _ := files[name].WriteAt(buf[:size], off); n > 0 {
							ref.write(name, int64(n), p.Charging(), clock.Now())
						}
					case op < 7:
						if n, _ := files[name].ReadAt(buf[:size], 0); n > 0 {
							ref.read(name, int64(n), p.Charging(), clock.Now())
						}
					case op < 9:
						if err := files[name].Sync(); err != nil {
							t.Fatal(err)
						}
						ref.sync(name)
					default:
						if err := apps[name].Storage().Sync(); err != nil {
							t.Fatal(err)
						}
						ref.sync(name)
					}
				}
				// Mostly sub-second gaps, so the process monitor catches
				// activity; now and then hours, to cross the charging and
				// screen schedules.
				if rng.Intn(20) == 0 {
					clock.Advance(time.Duration(rng.Intn(5)) * time.Hour)
				} else {
					clock.Advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
				}
				if step%25 == 0 {
					check(step)
				}
			}
			check(600)
			twinA, twinB := ref.onBattery[names[1]], ref.onBattery[names[2]]
			if ref.samples == 0 || len(ref.onBattery) < 3 || twinA == 0 || twinA != twinB {
				t.Fatalf("script too thin: %d samples, energy %v", ref.samples, ref.onBattery)
			}
		})
	}
}

// stubFile is a file whose WriteAt does nothing and allocates nothing.
type stubFile struct{ fs.File }

func (stubFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }

// TestSandboxWriteAllocatesNothing pins the accounting's per-op cost: an
// app's write allocates nothing beyond what the wrapped file does.
func TestSandboxWriteAllocatesNothing(t *testing.T) {
	p := testPhone(t, FSExt4)
	a, err := p.InstallApp("com.example.w")
	if err != nil {
		t.Fatal(err)
	}
	f := &sandboxFile{File: stubFile{}, phone: p, rec: a.rec}
	buf := make([]byte, 4096)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = f.WriteAt(buf, 0) }); allocs != 0 {
		t.Fatalf("sandboxFile.WriteAt allocates %v per call", allocs)
	}
	if got := p.AppIOStats("com.example.w").WriteOps; got != 101 {
		t.Fatalf("WriteOps = %d, want 101 (one warm-up call plus 100 runs)", got)
	}
}
