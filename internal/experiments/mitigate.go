package experiments

import (
	"errors"
	"fmt"
	"time"

	"flashwear/internal/android"
	"flashwear/internal/device"
	"flashwear/internal/ftl"
	"flashwear/internal/mitigation"
	"flashwear/internal/simclock"
)

// MitigationPolicy names a defence configuration of §4.5.
type MitigationPolicy string

const (
	PolicyNone      MitigationPolicy = "none"
	PolicyGlobal    MitigationPolicy = "global-limit"
	PolicySelective MitigationPolicy = "selective"
)

// MitigationRow is one policy's outcome against the attack plus a benign
// bursty app.
type MitigationRow struct {
	Policy MitigationPolicy
	// LifeConsumedPctPerDay is the attack's wear rate under the policy —
	// lower is better protection.
	LifeConsumedPctPerDay float64
	// ProjectedLifeDays extrapolates time to estimated end of life.
	ProjectedLifeDays float64
	// BenignBurstSeconds is how long the benign app's 64 MiB burst took —
	// higher means the mitigation hurt a legitimate app (§4.5's concern
	// with naive rate limiting).
	BenignBurstSeconds float64
	// WarningRaised reports whether the S.M.A.R.T.-style wear watch fired
	// a warning during the attack (§4.5's first proposal working).
	WarningRaised bool
}

// Mitigation evaluates the §4.5 defences: no defence, a global lifetime
// rate limit, and the classifier-driven selective throttle. Each policy
// faces the wear attack plus a benign app doing a burst file transfer.
func Mitigation(cfg Config) ([]MitigationRow, error) {
	cfg = cfg.Defaults()
	var out []MitigationRow
	for _, policy := range []MitigationPolicy{PolicyNone, PolicyGlobal, PolicySelective} {
		cfg.Progress("mitigation: policy %s", policy)
		row, err := runMitigation(policy, cfg)
		if err != nil {
			return nil, fmt.Errorf("mitigation %s: %w", policy, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func runMitigation(policy MitigationPolicy, cfg Config) (MitigationRow, error) {
	base := device.ProfileMotoE8()
	// A reduced endurance keeps the experiment affordable while
	// preserving every rate relationship the policies are judged on.
	base.RatedPE = 150
	base.FirmwareRatedPE = 150
	eff := base.EffectiveScale(cfg.Scale)
	prof := base.Scaled(cfg.Scale)
	budget := mitigation.LifespanBudget{
		CapacityBytes: prof.CapacityBytes, // scaled capacity: budget scales with it
		RatedPE:       prof.RatedPE,
		TargetYears:   3.0 / float64(eff), // keep the budget/wear ratio scale-invariant
		ExpectedWA:    2,
	}

	var throttle func(string, int64, time.Duration) time.Duration
	switch policy {
	case PolicyGlobal:
		lim, err := mitigation.NewRateLimiter(budget)
		if err != nil {
			return MitigationRow{}, err
		}
		lim.BurstBytes = float64(prof.CapacityBytes) / 64
		throttle = lim.Throttle
	case PolicySelective:
		st, err := mitigation.NewSelectiveThrottler(budget)
		if err != nil {
			return MitigationRow{}, err
		}
		st.Limiter.BurstBytes = float64(prof.CapacityBytes) / 64
		throttle = st.Throttle
	}

	clock := simclock.New()
	phone, err := android.NewPhone(android.Config{
		Profile:  prof,
		FS:       android.FSExt4,
		Charging: android.AlwaysOn(), // isolate throttling effects
		Screen:   android.Never(),
		Throttle: throttle,
	}, clock)
	if err != nil {
		return MitigationRow{}, err
	}
	attacker, err := phone.InstallApp("com.evil.wear")
	if err != nil {
		return MitigationRow{}, err
	}
	benign, err := phone.InstallApp("com.good.camera")
	if err != nil {
		return MitigationRow{}, err
	}

	// Attack setup + a fixed attack volume: enough full-device rewrites to
	// reach ~85% of the (reduced) rated life when unmitigated.
	set := newAttackSet(attacker.Storage(), eff)
	fitFileSet(set, phone.Device().Size())
	if err := set.Setup(); err != nil {
		return MitigationRow{}, err
	}
	watch := mitigation.NewWearWatch(phone.Device())
	attackBudget := phone.Device().Size() * int64(float64(prof.RatedPE)*0.85)
	start := clock.Now()
	var written int64
	for written < attackBudget {
		n, err := set.Step(4 << 20)
		written += n
		watch.Sample(clock.Now())
		if err != nil {
			if errors.Is(err, device.ErrBricked) || errors.Is(err, ftl.ErrBricked) ||
				errors.Is(err, device.ErrReadOnly) || errors.Is(err, ftl.ErrReadOnly) {
				break
			}
			return MitigationRow{}, err
		}
	}
	attackDays := (clock.Now() - start).Hours() / 24
	lifePct := phone.Device().FTL().LifeConsumed(ftl.PoolB) * 100

	// Benign burst: 64 MiB photo import, measured after the attack has
	// been running (so a global limiter's bucket is already drained).
	f, err := benign.Storage().Create("/import.bin")
	if err != nil {
		return MitigationRow{}, err
	}
	burst := int64(64 << 20)
	if burst > phone.Device().Size()/8 {
		burst = phone.Device().Size() / 8
	}
	bStart := clock.Now()
	chunk := make([]byte, 1<<20)
	for off := int64(0); off < burst; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk[:min(int64(len(chunk)), burst-off)], off); err != nil {
			return MitigationRow{}, err
		}
	}
	benignSecs := (clock.Now() - bStart).Seconds()

	row := MitigationRow{
		Policy:             policy,
		BenignBurstSeconds: benignSecs,
	}
	if attackDays > 0 {
		row.LifeConsumedPctPerDay = lifePct / attackDays
		if row.LifeConsumedPctPerDay > 0 {
			// Simulated days scale back up with the effective scale.
			row.ProjectedLifeDays = 100 / row.LifeConsumedPctPerDay * float64(eff)
			row.LifeConsumedPctPerDay /= float64(eff)
		}
	}
	if _, ok := watch.FirstAlertAt(mitigation.AlertWarning); ok {
		row.WarningRaised = true
	}
	return row, nil
}
