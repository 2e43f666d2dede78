package android

import (
	"testing"
	"testing/quick"
	"time"

	"flashwear/internal/device"
	"flashwear/internal/simclock"
)

func testPhone(t *testing.T, fsKind FSKind) *Phone {
	t.Helper()
	p, err := NewPhone(Config{
		Profile: device.ProfileMotoE8().Scaled(512),
		FS:      fsKind,
	}, simclock.New())
	if err != nil {
		t.Fatalf("NewPhone: %v", err)
	}
	return p
}

func TestScheduleContains(t *testing.T) {
	night := Period{From: 22 * time.Hour, To: 7 * time.Hour}
	if !night.Contains(23 * time.Hour) {
		t.Error("23:00 should be in 22:00-07:00")
	}
	if !night.Contains(30 * time.Hour) { // 06:00 next day
		t.Error("06:00 should be in 22:00-07:00")
	}
	if night.Contains(12 * time.Hour) {
		t.Error("12:00 should not be in 22:00-07:00")
	}
	day := Period{From: 8 * time.Hour, To: 22 * time.Hour}
	if !day.Contains(12*time.Hour) || day.Contains(23*time.Hour) {
		t.Error("day period wrong")
	}
	if Never().Active(0) {
		t.Error("Never is active")
	}
	if !AlwaysOn().Active(13 * time.Hour) {
		t.Error("AlwaysOn inactive")
	}
}

func TestPhoneBootsBothFilesystems(t *testing.T) {
	for _, kind := range []FSKind{FSExt4, FSF2FS} {
		p := testPhone(t, kind)
		if p.fsys.Name() == "" {
			t.Errorf("%s: empty FS name", kind)
		}
		if err := p.Shutdown(); err != nil {
			t.Errorf("%s: shutdown: %v", kind, err)
		}
	}
	if _, err := NewPhone(Config{Profile: device.ProfileMotoE8().Scaled(512), FS: "vfat"}, nil); err == nil {
		t.Error("unknown FS accepted")
	}
}

func TestAppSandboxIsolation(t *testing.T) {
	p := testPhone(t, FSExt4)
	a, err := p.InstallApp("com.example.a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.InstallApp("com.example.b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InstallApp("com.example.a"); err == nil {
		t.Fatal("duplicate install accepted")
	}
	f, err := a.Storage().Create("/secret.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("mine"), 0); err != nil {
		t.Fatal(err)
	}
	// App B sees only its own empty sandbox.
	ents, err := b.Storage().ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("app B sees %v", ents)
	}
	// The real file lives under A's private dir.
	if _, err := p.fsys.Stat("/data/com.example.a/secret.txt"); err != nil {
		t.Fatalf("file not under private dir: %v", err)
	}
	// Sandboxes cannot unmount the volume.
	if err := a.Storage().Unmount(); err == nil {
		t.Fatal("sandbox unmount succeeded")
	}
}

func TestPerAppIOAccounting(t *testing.T) {
	p := testPhone(t, FSExt4)
	a, _ := p.InstallApp("com.example.w")
	f, _ := a.Storage().Create("/f")
	payload := make([]byte, 8192)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	s := p.AppIOStats("com.example.w")
	if s.BytesWritten != 8192 || s.WriteOps != 1 {
		t.Fatalf("write stats = %+v", s)
	}
	if s.BytesRead != 8192 || s.ReadOps != 1 {
		t.Fatalf("read stats = %+v", s)
	}
	if s.SyncOps != 1 {
		t.Fatalf("sync stats = %+v", s)
	}
	if got := p.AppIOStats("unknown"); got != (IOStats{}) {
		t.Fatal("unknown app has stats")
	}
}

func TestPowerMonitorOnlyOnBattery(t *testing.T) {
	clock := simclock.New()
	p, err := NewPhone(Config{Profile: device.ProfileMotoE8().Scaled(512), FS: FSExt4}, clock)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.InstallApp("com.example.w")
	f, _ := a.Storage().Create("/f")

	// Midnight: charging (22:00-07:00) -> invisible to the power monitor.
	if !p.Charging() {
		t.Fatal("expected charging at 00:00")
	}
	if _, err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	if j := p.PowerMonitor().AttributedJoules("com.example.w"); j != 0 {
		t.Fatalf("charging I/O attributed %v J", j)
	}
	// Midday: on battery -> attributed.
	clock.AdvanceTo(12 * time.Hour)
	if p.Charging() {
		t.Fatal("expected on-battery at 12:00")
	}
	if _, err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	if j := p.PowerMonitor().AttributedJoules("com.example.w"); j <= 0 {
		t.Fatal("on-battery I/O not attributed")
	}
}

func TestProcessMonitorSeesScreenOnIO(t *testing.T) {
	clock := simclock.New()
	p, err := NewPhone(Config{Profile: device.ProfileMotoE8().Scaled(512), FS: FSExt4}, clock)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.InstallApp("com.example.loud")
	f, _ := a.Storage().Create("/f")
	clock.AdvanceTo(12 * time.Hour) // screen on
	if !p.ScreenOn() {
		t.Fatal("screen should be on at noon")
	}
	// I/O spread over several seconds of screen-on time.
	for i := 0; i < 20; i++ {
		if _, err := f.WriteAt(make([]byte, 256<<10), 0); err != nil {
			t.Fatal(err)
		}
		clock.Advance(500 * time.Millisecond)
	}
	if p.ProcessMonitor().ObservedCount("com.example.loud") == 0 {
		t.Fatal("process monitor missed screen-on I/O")
	}
}

func TestProcessMonitorEvadedByScreenOffIO(t *testing.T) {
	clock := simclock.New()
	p, err := NewPhone(Config{Profile: device.ProfileMotoE8().Scaled(512), FS: FSExt4}, clock)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.InstallApp("com.example.stealth")
	f, _ := a.Storage().Create("/f")
	// 02:00: screen off. Do I/O, then idle into screen-on hours without
	// further I/O.
	clock.AdvanceTo(2 * time.Hour)
	for i := 0; i < 20; i++ {
		if _, err := f.WriteAt(make([]byte, 256<<10), 0); err != nil {
			t.Fatal(err)
		}
		clock.Advance(500 * time.Millisecond)
	}
	clock.AdvanceTo(12 * time.Hour) // screen-on samples happen now
	if n := p.ProcessMonitor().ObservedCount("com.example.stealth"); n != 0 {
		t.Fatalf("stealth app observed %d times", n)
	}
	// A control app's screen-on I/O shows the monitor did sample.
	c, _ := p.InstallApp("com.example.control")
	g, _ := c.Storage().Create("/g")
	if _, err := g.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	if p.ProcessMonitor().ObservedCount("com.example.control") == 0 {
		t.Fatal("monitor never sampled")
	}
}

func TestThrottleHookDelaysWrites(t *testing.T) {
	clock := simclock.New()
	var throttled int64
	p, err := NewPhone(Config{
		Profile: device.ProfileMotoE8().Scaled(512),
		FS:      FSExt4,
		Throttle: func(app string, bytes int64, now time.Duration) time.Duration {
			throttled += bytes
			return time.Millisecond
		},
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.InstallApp("com.example.w")
	f, _ := a.Storage().Create("/f")
	before := clock.Now()
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if throttled != 4096 {
		t.Fatalf("throttle saw %d bytes", throttled)
	}
	if clock.Now()-before < time.Millisecond {
		t.Fatal("throttle delay not applied")
	}
}

func TestInstallAppValidatesName(t *testing.T) {
	p := testPhone(t, FSExt4)
	if _, err := p.InstallApp("bad/name"); err == nil {
		t.Fatal("bad app name accepted")
	}
}

func TestQuickScheduleComplement(t *testing.T) {
	// Property: for the default schedules, at any instant the phone is in
	// a well-defined state, and charging/screen-off (the stealth window)
	// is exactly 22:00-07:00.
	charging := DefaultCharging()
	screen := DefaultScreen()
	f := func(minute uint16) bool {
		tod := time.Duration(minute%1440) * time.Minute
		c := charging.Active(tod)
		s := screen.Active(tod)
		stealth := c && !s
		inWindow := tod >= 22*time.Hour || tod < 7*time.Hour
		return stealth == inWindow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := Schedule{Periods: []Period{{From: -time.Hour, To: time.Hour}}}
	if bad.Validate() == nil {
		t.Fatal("negative period accepted")
	}
	bad2 := Schedule{Periods: []Period{{From: time.Hour, To: 25 * time.Hour}}}
	if bad2.Validate() == nil {
		t.Fatal("period past 24h accepted")
	}
	if DefaultCharging().Validate() != nil || DefaultScreen().Validate() != nil {
		t.Fatal("defaults invalid")
	}
}

func TestSandboxRenameConfined(t *testing.T) {
	p := testPhone(t, FSExt4)
	a, _ := p.InstallApp("com.example.r")
	f, _ := a.Storage().Create("/cfg.tmp")
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	_ = f.Sync()
	if err := a.Storage().Rename("/cfg.tmp", "/cfg"); err != nil {
		t.Fatal(err)
	}
	// The rename happened inside the private dir.
	if _, err := p.fsys.Stat("/data/com.example.r/cfg"); err != nil {
		t.Fatalf("renamed file not in sandbox: %v", err)
	}
	if _, err := p.fsys.Stat("/cfg"); err == nil {
		t.Fatal("rename escaped the sandbox")
	}
}
