package mitigation

import (
	"math/rand"
	"testing"
	"time"

	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/simclock"
)

func testBudget() LifespanBudget {
	return LifespanBudget{
		CapacityBytes: 8 << 30,
		RatedPE:       1400,
		TargetYears:   3,
		ExpectedWA:    2,
	}
}

func TestBudgetMath(t *testing.T) {
	b := testBudget()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8 GiB * 1400 / 2 = 5 600 GiB total; /1095 days ≈ 5.11 GiB/day.
	perDay := b.BytesPerDay() / (1 << 30)
	if perDay < 5.05 || perDay >= 5.15 {
		t.Fatalf("budget = %.2f GiB/day, want 5.1", perDay)
	}
	if b.BytesPerSecond() <= 0 {
		t.Fatal("zero rate")
	}
	bad := []LifespanBudget{
		{CapacityBytes: 0, RatedPE: 1, TargetYears: 1},
		{CapacityBytes: 1, RatedPE: 0, TargetYears: 1},
		{CapacityBytes: 1, RatedPE: 1, TargetYears: 0},
		{CapacityBytes: 1, RatedPE: 1, TargetYears: 1, ExpectedWA: -1},
	}
	for i, x := range bad {
		if x.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTokenBucketBurstThenThrottle(t *testing.T) {
	tb := NewTokenBucket(1000, 5000) // 1000 B/s, 5000 B burst
	now := time.Duration(0)
	// The burst passes free.
	if d := tb.Take(5000, now); d != 0 {
		t.Fatalf("burst delayed %v", d)
	}
	// The next chunk must wait ~2 seconds.
	d := tb.Take(2000, now)
	if d < 1900*time.Millisecond || d > 2100*time.Millisecond {
		t.Fatalf("delay = %v, want ~2s", d)
	}
	// After enough simulated time, tokens replenish.
	now += 10 * time.Second
	if d := tb.Take(1000, now); d != 0 {
		t.Fatalf("replenished take delayed %v", d)
	}
}

func TestTokenBucketZeroRate(t *testing.T) {
	tb := NewTokenBucket(0, 10)
	_ = tb.Take(10, 0)
	if d := tb.Take(1, 0); d <= 0 {
		t.Fatal("zero-rate bucket did not block")
	}
}

func TestRateLimiterGlobalVsPerApp(t *testing.T) {
	lim, err := NewRateLimiter(testBudget())
	if err != nil {
		t.Fatal(err)
	}
	lim.BurstBytes = 1 << 20
	lim.global = NewTokenBucket(lim.budget.BytesPerSecond(), lim.BurstBytes)
	// Exhaust the global bucket with app A; app B is then throttled too.
	_ = lim.Throttle("a", 1<<20, 0)
	if d := lim.Throttle("b", 1<<20, 0); d == 0 {
		t.Fatal("global limiter did not throttle app B after app A's burst")
	}

	lim2, _ := NewRateLimiter(testBudget())
	lim2.PerApp = true
	lim2.BurstBytes = 1 << 20
	_ = lim2.Throttle("a", 1<<20, 0)
	if d := lim2.Throttle("a", 1<<20, 0); d == 0 {
		t.Fatal("per-app limiter did not throttle app A past its burst")
	}
	if d := lim2.Throttle("b", 1<<20, 0); d != 0 {
		t.Fatalf("per-app limiter punished app B for app A's writes (%v)", d)
	}
}

func TestClassifierFlagsAttackNotBenign(t *testing.T) {
	c := NewClassifier(testBudget())
	now := time.Duration(0)
	// Attack: sustained 4 KiB sync writes at ~4 MiB/s for half an hour.
	for now < 30*time.Minute {
		c.ObserveWrite("attacker", 4096, true, now)
		now += time.Millisecond
	}
	if !c.Malicious("attacker", now) {
		t.Fatalf("attacker score = %v, not flagged", c.Score("attacker", now))
	}
	// Benign: a 200 MiB file transfer burst, then silence.
	c2 := NewClassifier(testBudget())
	burstNow := time.Duration(0)
	for i := 0; i < 200; i++ {
		c2.ObserveWrite("camera", 1<<20, false, burstNow)
		burstNow += 10 * time.Millisecond
	}
	// Evaluated a few hours later, the burst has aged out of pressure.
	later := 6 * time.Hour
	if c2.Malicious("camera", later) {
		t.Fatalf("benign burst flagged: score %v", c2.Score("camera", later))
	}
	if c2.Score("unknown", later) != 0 {
		t.Fatal("unknown app scored")
	}
}

func TestSelectiveThrottlerSparesBenign(t *testing.T) {
	st, err := NewSelectiveThrottler(testBudget())
	if err != nil {
		t.Fatal(err)
	}
	// Benign burst: never throttled.
	var benignDelay time.Duration
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		benignDelay += st.Throttle("camera", 1<<20, now)
		now += 20 * time.Millisecond
	}
	if benignDelay != 0 {
		t.Fatalf("benign app delayed %v", benignDelay)
	}
	// Attack: small writes, sustained for an hour -> flagged and throttled.
	var attackDelay time.Duration
	for now < time.Hour {
		attackDelay += st.Throttle("attacker", 4096, now)
		now += time.Millisecond
	}
	if attackDelay == 0 {
		t.Fatal("attacker never throttled")
	}
}

func TestWearWatchAlerts(t *testing.T) {
	clock := simclock.New()
	p := device.ProfileEMMC8().Scaled(512)
	p.RatedPE = 60
	dev, err := device.New(p, clock)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearWatch(dev)
	s := w.Sample(clock.Now())
	if s.Alert != AlertNone || s.Untrusted {
		t.Fatalf("fresh sample = %+v", s)
	}
	// Wear it down, sampling as we go.
	rng := rand.New(rand.NewSource(5))
	var lastErr error
	for i := 0; i < 3_000_000; i++ {
		off := int64(rng.Intn(int(dev.Size()/4096/8))) * 4096
		if lastErr = dev.WriteAccounted(off, 4096); lastErr != nil {
			break
		}
		if i%2000 == 0 {
			w.Sample(clock.Now())
		}
	}
	w.Sample(clock.Now())
	warnAt, warned := w.FirstAlertAt(AlertWarning)
	critAt, crit := w.FirstAlertAt(AlertCritical)
	if !warned || !crit {
		t.Fatalf("alerts missing: warn=%v crit=%v (history %d)", warned, crit, len(w.history))
	}
	if warnAt >= critAt {
		t.Fatalf("warning (%v) should precede critical (%v)", warnAt, critAt)
	}
	if dev.WearIndicator(ftl.PoolB) < 9 {
		t.Fatal("device not actually worn")
	}
}

func TestWearWatchUntrustedRegisters(t *testing.T) {
	clock := simclock.New()
	dev, err := device.New(device.ProfileBLU512().Scaled(64), clock)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWearWatch(dev)
	sawUntrusted := false
	for i := 0; i < 50; i++ {
		if w.Sample(clock.Now()).Untrusted {
			sawUntrusted = true
			break
		}
	}
	if !sawUntrusted {
		t.Fatal("BLU-class registers never flagged untrusted")
	}
}

func TestAlertLevelString(t *testing.T) {
	for l, want := range map[AlertLevel]string{
		AlertNone: "none", AlertInfo: "info", AlertWarning: "warning",
		AlertCritical: "critical", AlertLevel(9): "unknown",
	} {
		if l.String() != want {
			t.Errorf("%d.String() = %q", l, l.String())
		}
	}
}
