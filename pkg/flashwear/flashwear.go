// Package flashwear is the public API of the flashwear library — a
// simulation stack reproducing "Flash Drive Lifespan *is* a Problem"
// (HotOS '17): calibrated mobile flash devices (NAND + FTL + controller),
// ext4-like and F2FS-like file systems, an Android-like app environment,
// the paper's wear-out attack, and the §4.5 mitigations.
//
// The package re-exports the stable surface of the internal packages; see
// the examples/ directory for end-to-end usage and DESIGN.md for the
// architecture.
package flashwear

import (
	"flashwear/internal/android"
	"flashwear/internal/appmodel"
	"flashwear/internal/core"
	"flashwear/internal/device"
	"flashwear/internal/experiments"
	"flashwear/internal/ftl"
	"flashwear/internal/mitigation"
	"flashwear/internal/simclock"
	"flashwear/internal/trace"
	"flashwear/internal/workload"
)

// Simulated time.
type (
	// Clock is the discrete-event simulated clock every component shares.
	Clock = simclock.Clock
)

// NewClock returns a clock at simulated time zero.
func NewClock() *Clock { return simclock.New() }

// Devices.
type (
	// Device is a complete simulated storage device (NAND + FTL +
	// controller timing). It implements the block-device interface the
	// file systems mount on.
	Device = device.Device
	// Profile is a calibrated device description.
	Profile = device.Profile
	// PoolID selects a hybrid pool for wear queries.
	PoolID = ftl.PoolID
)

// The two hybrid pools (JEDEC life-time estimate registers A and B).
const (
	PoolA = ftl.PoolA
	PoolB = ftl.PoolB
)

// NewDevice builds a device from a profile on the given clock (nil for a
// fresh clock).
func NewDevice(p Profile, clock *Clock) (*Device, error) { return device.New(p, clock) }

// Calibrated profiles for the paper's seven evaluation devices (§4.1).
var (
	ProfileUSD16     = device.ProfileUSD16
	ProfileEMMC8     = device.ProfileEMMC8
	ProfileEMMC16    = device.ProfileEMMC16
	ProfileMotoE8    = device.ProfileMotoE8
	ProfileSamsungS6 = device.ProfileSamsungS6
	ProfileBLU512    = device.ProfileBLU512
	ProfileBLU4      = device.ProfileBLU4
	ProfileEMMC8TLC  = device.ProfileEMMC8TLC
	AllProfiles      = device.AllProfiles
	ProfileByName    = device.ProfileByName
)

// Phones and apps.
type (
	// Phone is a simulated handset: device, file system, app sandboxes,
	// and the OS monitors of §4.4.
	Phone = android.Phone
	// PhoneConfig assembles a phone.
	PhoneConfig = android.Config
	// App is an installed application confined to its private storage.
	App = android.App
	// FSKind selects ext4-like or F2FS-like storage.
	FSKind = android.FSKind
	// Schedule describes daily charging/screen periods.
	Schedule = android.Schedule
	// IOStats is the OS's per-app I/O accounting.
	IOStats = android.IOStats
)

// File-system kinds.
const (
	FSExt4 = android.FSExt4
	FSF2FS = android.FSF2FS
)

// NewPhone boots a phone.
func NewPhone(cfg PhoneConfig, clock *Clock) (*Phone, error) { return android.NewPhone(cfg, clock) }

// Schedules.
var (
	DefaultCharging = android.DefaultCharging
	DefaultScreen   = android.DefaultScreen
	AlwaysOn        = android.AlwaysOn
	Never           = android.Never
)

// The paper's contribution: estimates, wear experiments, the attack.
type (
	// Envelope is §2.3's back-of-the-envelope lifetime estimate.
	Envelope = core.Envelope
	// Runner measures I/O volume and time per wear-indicator increment.
	Runner = core.Runner
	// Increment is one indicator step (a Figure 2/4 or Table 1 row).
	Increment = core.Increment
	// RunReport summarises a wear run.
	RunReport = core.RunReport
	// Attack is the §4.4 unprivileged wear-out app.
	Attack = core.Attack
	// AttackMode selects continuous or stealth scheduling.
	AttackMode = core.AttackMode
	// AttackReport summarises an attack run.
	AttackReport = core.AttackReport
)

// Attack modes.
const (
	Continuous = core.Continuous
	Stealth    = core.Stealth
)

// NewEnvelope builds the consumer-expectation estimate for a capacity.
func NewEnvelope(capacityBytes int64) Envelope { return core.NewEnvelope(capacityBytes) }

// NewRunner builds a wear-measurement runner; scale is the profile's
// capacity divisor (results are reported at full scale).
func NewRunner(dev *Device, clock *Clock, scale int64) *Runner {
	return core.NewRunner(dev, clock, scale)
}

// NewAttack builds the paper's attack app for an installed App.
func NewAttack(app *App, mode AttackMode, scale int64) *Attack {
	return core.NewAttack(app, mode, scale)
}

// Workloads.
type (
	// DeviceWriter issues raw write patterns (Figure 1, Table 1 phases).
	DeviceWriter = workload.DeviceWriter
	// FileSet is the paper's 4 x 100 MB rewrite workload.
	FileSet = workload.FileSet
	// BenchResult is one bandwidth measurement.
	BenchResult = workload.BenchResult
)

var (
	// NewDeviceWriter builds a raw pattern writer.
	NewDeviceWriter = workload.NewDeviceWriter
	// Microbench measures synchronous write bandwidth (Figure 1).
	Microbench = workload.Microbench
	// Figure1Sizes returns Figure 1's request sizes.
	Figure1Sizes = workload.Figure1Sizes
)

// Mitigations (§4.5).
type (
	// LifespanBudget computes a sustainable write rate.
	LifespanBudget = mitigation.LifespanBudget
	// RateLimiter enforces a budget (global or per-app).
	RateLimiter = mitigation.RateLimiter
	// Classifier flags wear-attack write patterns.
	Classifier = mitigation.Classifier
	// SelectiveThrottler throttles only flagged apps.
	SelectiveThrottler = mitigation.SelectiveThrottler
	// WearWatch polls the health registers S.M.A.R.T.-style.
	WearWatch = mitigation.WearWatch
	// HealthSample is one WearWatch reading.
	HealthSample = mitigation.HealthSample
)

var (
	NewRateLimiter        = mitigation.NewRateLimiter
	NewClassifier         = mitigation.NewClassifier
	NewSelectiveThrottler = mitigation.NewSelectiveThrottler
	NewWearWatch          = mitigation.NewWearWatch
	// AttributeWear splits consumed device life across apps in proportion
	// to their written bytes — the per-app pinpointing §4.5 asks for.
	AttributeWear = mitigation.AttributeWear
)

// WearShare is one app's slice of the device's consumed life.
type WearShare = mitigation.WearShare

// Experiments: one function per table/figure of the paper (shared by the
// CLI tools and the benchmark harness).
type (
	// ExperimentConfig controls experiment scale and depth.
	ExperimentConfig = experiments.Config
	// WearRun labels a wear report.
	WearRun = experiments.WearRun
	// Figure1Point is one (device, size) bandwidth measurement.
	Figure1Point = experiments.Figure1Point
)

var (
	Figure1            = experiments.Figure1
	Figure2            = experiments.Figure2
	Figure3            = experiments.Figure3
	Figure4            = experiments.Figure4
	Table1             = experiments.Table1
	Detection          = experiments.Detection
	BudgetPhones       = experiments.BudgetPhones
	MitigationEval     = experiments.Mitigation
	ClassifierEval     = experiments.ClassifierEval
	EnvelopeComparison = experiments.EnvelopeComparison
)

// I/O tracing: record once, replay across devices.
type (
	// TraceRecorder wraps a device and captures its request stream.
	TraceRecorder = trace.Recorder
	// TraceEvent is one traced request.
	TraceEvent = trace.Event
	// ReplayOptions tune a trace replay.
	ReplayOptions = trace.ReplayOptions
)

var (
	NewTraceRecorder = trace.NewRecorder
	WriteTrace       = trace.Write
	ReadTrace        = trace.Read
	ReplayTrace      = trace.Replay
)

// Application behaviour models (§4.5's "model of expected mobile
// application I/O behavior").
type (
	// AppModel is a synthetic application whose storage behaviour unfolds
	// over simulated time.
	AppModel = appmodel.Model
)

var (
	NewCamera     = appmodel.NewCamera
	NewChat       = appmodel.NewChat
	NewUpdater    = appmodel.NewUpdater
	NewSpotifyBug = appmodel.NewSpotifyBug
)
