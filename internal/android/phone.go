package android

import (
	"errors"
	"fmt"
	"time"

	"flashwear/internal/blockdev"
	"flashwear/internal/device"
	"flashwear/internal/fs"
	"flashwear/internal/fs/extfs"
	"flashwear/internal/fs/f2fs"
	"flashwear/internal/simclock"
	"flashwear/internal/wtrace"
)

// FSKind selects the phone's file system (§4.1: most phones use Ext4, the
// Moto E uses F2FS).
type FSKind string

const (
	FSExt4 FSKind = "ext4"
	FSF2FS FSKind = "f2fs"
)

// Config assembles a phone.
type Config struct {
	Profile  device.Profile
	FS       FSKind
	Charging Schedule
	Screen   Schedule
	// Throttle, when non-nil, rate-limits app writes (a §4.5 mitigation
	// installed at the OS layer). It is consulted with the app name and
	// byte count before each write reaches the FS.
	Throttle func(app string, bytes int64, now time.Duration) time.Duration
	// WearTrace, when non-nil, attaches causal wear attribution: every
	// installed app becomes a wtrace origin, and each sandbox operation
	// runs under that app's tag so the wear it causes — all the way down
	// to NAND erases — lands in the app's ledger row. mkfs/mount and FS
	// background work stay on origin 0 ("os").
	WearTrace *wtrace.Tracer
}

// Phone is a simulated handset: a flash device, a file system, apps with
// private storage, and the OS monitors.
type Phone struct {
	cfg   Config
	clock *simclock.Clock
	dev   *device.Device
	fsys  fs.FileSystem

	apps     appTable
	powerMon *PowerMonitor
	procMon  *ProcessMonitor
	stopMon  func()
}

// MkfsMount formats dev with the file system kind names (ext4 when kind
// is empty) and mounts it in data-accounting mode: the simulation never
// reads file payloads back.
func MkfsMount(dev blockdev.Device, kind FSKind) (fs.FileSystem, error) {
	opts := fs.Options{DataAccounting: true}
	switch kind {
	case FSF2FS:
		if err := f2fs.Mkfs(dev); err != nil {
			return nil, fmt.Errorf("android: mkfs.f2fs: %w", err)
		}
		fsys, err := f2fs.Mount(dev, opts)
		if err != nil {
			return nil, fmt.Errorf("android: mount f2fs: %w", err)
		}
		return fsys, nil
	case FSExt4, "":
		if err := extfs.Mkfs(dev); err != nil {
			return nil, fmt.Errorf("android: mkfs.ext4: %w", err)
		}
		fsys, err := extfs.Mount(dev, opts)
		if err != nil {
			return nil, fmt.Errorf("android: mount ext4: %w", err)
		}
		return fsys, nil
	default:
		return nil, fmt.Errorf("android: unknown FS kind %q", kind)
	}
}

// NewPhone boots a phone: builds the device, formats and mounts the FS,
// and starts the monitors.
func NewPhone(cfg Config, clock *simclock.Clock) (*Phone, error) {
	if clock == nil {
		clock = simclock.New()
	}
	if cfg.Charging.Periods == nil {
		cfg.Charging = DefaultCharging()
	}
	if cfg.Screen.Periods == nil {
		cfg.Screen = DefaultScreen()
	}
	if err := cfg.Charging.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Screen.Validate(); err != nil {
		return nil, err
	}
	dev, err := device.New(cfg.Profile, clock)
	if err != nil {
		return nil, err
	}
	if cfg.WearTrace != nil {
		// Before mkfs, so attribution state is born with the flash state;
		// the format itself runs untagged (origin 0, "os").
		dev.EnableWearTrace(cfg.WearTrace)
	}
	fsys, err := MkfsMount(dev, cfg.FS)
	if err != nil {
		return nil, err
	}
	p := &Phone{
		cfg:   cfg,
		clock: clock,
		dev:   dev,
		fsys:  fsys,
		apps:  appTable{byName: make(map[string]*appRecord)},
	}
	// A typical eMMC energy cost, and the observed 1-second refresh.
	p.powerMon = &PowerMonitor{JoulesPerGiB: 40, apps: &p.apps}
	p.procMon = &ProcessMonitor{Window: time.Second, apps: &p.apps}
	if err := fsys.Mkdir("/data"); err != nil && !errors.Is(err, fs.ErrExist) {
		return nil, err
	}
	p.stopMon = clock.Every(p.procMon.Window, func() {
		p.procMon.Sample(clock.Now(), p.ScreenOn())
	})
	return p, nil
}

// Clock returns the phone's simulated clock.
func (p *Phone) Clock() *simclock.Clock { return p.clock }

// Device returns the phone's storage device.
func (p *Phone) Device() *device.Device { return p.dev }

// Charging reports the charger state now — observable by any app, which is
// what makes the power-monitor evasion possible.
func (p *Phone) Charging() bool { return p.cfg.Charging.Active(p.clock.Now()) }

// ScreenOn reports the screen state now — also observable by any app.
func (p *Phone) ScreenOn() bool { return p.cfg.Screen.Active(p.clock.Now()) }

// ChargingAt reports the charger state at an arbitrary simulated time.
func (p *Phone) ChargingAt(t time.Duration) bool { return p.cfg.Charging.Active(t) }

// ScreenOnAt reports the screen state at an arbitrary simulated time.
func (p *Phone) ScreenOnAt(t time.Duration) bool { return p.cfg.Screen.Active(t) }

// PowerMonitor exposes the battery-stats view.
func (p *Phone) PowerMonitor() *PowerMonitor { return p.powerMon }

// ProcessMonitor exposes the running-apps view.
func (p *Phone) ProcessMonitor() *ProcessMonitor { return p.procMon }

// InstallApp provisions an app with a private directory under /data. No
// permission prompts are involved — exactly like the paper's 963-LoC app.
func (p *Phone) InstallApp(name string) (*App, error) {
	if err := fs.CheckName(name); err != nil {
		return nil, err
	}
	if _, ok := p.apps.byName[name]; ok {
		return nil, fmt.Errorf("android: app %q already installed", name)
	}
	// With wear tracing on, the app's view tags every mutating operation
	// with the app's origin, so the wear it causes is attributed to it.
	view := p.fsys
	if tr := p.cfg.WearTrace; tr != nil {
		view = wtrace.TagFS(p.fsys, tr, tr.Origin(name))
	}
	root := "/data/" + name
	if err := view.Mkdir(root); err != nil {
		return nil, err
	}
	rec := &appRecord{name: name}
	p.apps.order = append(p.apps.order, rec)
	p.apps.byName[name] = rec
	return &App{rec: rec, phone: p, storage: &sandboxFS{phone: p, rec: rec, root: root, fsys: view}}, nil
}

// AppIOStats returns the OS's per-app I/O accounting (§4.5).
func (p *Phone) AppIOStats(name string) IOStats { return p.apps.get(name).io }

// Shutdown unmounts cleanly and stops the monitors.
func (p *Phone) Shutdown() error {
	if p.stopMon != nil {
		p.stopMon()
		p.stopMon = nil
	}
	return p.fsys.Unmount()
}

// accounting hooks called by the sandbox.

func (p *Phone) accountWrite(r *appRecord, n int64) {
	r.io.BytesWritten += n
	r.io.WriteOps++
	now := p.clock.Now()
	p.noteIO(r, n, now)
	if p.cfg.Throttle != nil {
		if delay := p.cfg.Throttle(r.name, n, now); delay > 0 {
			p.clock.Advance(delay)
		}
	}
}

func (p *Phone) accountRead(r *appRecord, n int64) {
	r.io.BytesRead += n
	r.io.ReadOps++
	p.noteIO(r, n, p.clock.Now())
}

func (p *Phone) accountSync(r *appRecord) { r.io.SyncOps++ }

// noteIO shows an app's I/O of n bytes at simulated time now to both
// monitors.
func (p *Phone) noteIO(r *appRecord, n int64, now time.Duration) {
	p.powerMon.record(r, n, p.ChargingAt(now))
	r.lastIO, r.didIO = now, true // what the process monitor samples
}

// App is an installed application with access to its private storage only.
type App struct {
	rec     *appRecord
	phone   *Phone
	storage fs.FileSystem
}

// Name returns the app's package name.
func (a *App) Name() string { return a.rec.name }

// Storage returns the app's private file-system view.
func (a *App) Storage() fs.FileSystem { return a.storage }

// Phone gives the app the device observations any app legitimately has:
// charger state and screen state.
func (a *App) Charging() bool { return a.phone.Charging() }

// ScreenOn reports the screen state.
func (a *App) ScreenOn() bool { return a.phone.ScreenOn() }

// Compile-time checks.
var _ blockdev.Device = (*device.Device)(nil)
