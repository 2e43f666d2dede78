package appmodel

import (
	"math"
	"time"

	"flashwear/internal/simrand"
)

// This file derives long-run write-rate figures from the bundled app models
// so population-scale simulations (internal/fleet) can sample per-device
// daily write volumes from the same behavioural model §4.5 argues
// mitigations should be built on, without paying for a full file-system
// replay of every app on every simulated phone.

// Size and period shorthands for the nominal-rate arithmetic.
const (
	day = 24 * time.Hour

	// cameraDailyBytes: 24 MiB burst every 6 h.
	cameraDailyBytes = int64(24<<20) * int64(day/(6*time.Hour))
	// chatDailyBytes: 2 KiB messages every 2 min plus a 64 KiB database
	// compaction every ~50 messages.
	chatMsgsPerDay = int64(day / (2 * time.Minute))
	chatDailyBytes = chatMsgsPerDay*(2<<10) + chatMsgsPerDay/50*(64<<10)
	// updaterDailyBytes: 128 MiB monthly.
	updaterDailyBytes = int64(128<<20) / 30
	// buggyDailyBytes is the nominal volume of the Spotify cache bug [26]:
	// unlike the benign apps it writes whenever the process is alive, and
	// press coverage of the incident reported tens to hundreds of GB per
	// day. 50 GiB/day is the calibration midpoint; the fleet sampler
	// spreads devices around it.
	buggyDailyBytes = int64(50) << 30
)

// NominalDailyBytes returns the long-run average bytes written per day by
// each bundled model under its default parameters, keyed by model name.
func NominalDailyBytes() map[string]int64 {
	return map[string]int64{
		"camera":      cameraDailyBytes,
		"chat":        chatDailyBytes,
		"updater":     updaterDailyBytes,
		"spotify-bug": buggyDailyBytes,
	}
}

// BenignDailyBytes is the nominal daily volume of a phone running the full
// benign population (camera + chat + updater): roughly 100 MiB/day, the
// "decades of life" baseline the paper contrasts the attack against.
func BenignDailyBytes() int64 {
	return cameraDailyBytes + chatDailyBytes + updaterDailyBytes
}

// lognormal draws a multiplicative activity factor with median 1 and the
// given log-scale sigma, clamped to [lo, hi] so one extreme draw cannot
// dominate an aggregate.
func lognormal(rng *simrand.Rand, sigma, lo, hi float64) float64 {
	f := math.Exp(rng.NormFloat64() * sigma)
	if f < lo {
		f = lo
	}
	if f > hi {
		f = hi
	}
	return f
}

// SampleBenignDailyBytes draws one device's benign daily write volume: the
// nominal benign population scaled by a log-normal user-activity factor
// (median 1, heavy-ish upper tail — some users shoot far more photos).
func SampleBenignDailyBytes(rng *simrand.Rand) int64 {
	return int64(float64(BenignDailyBytes()) * lognormal(rng, 0.6, 0.05, 16))
}

// SampleBuggyDailyBytes draws one device's daily volume under a
// misbehaving-app bug: nominally tens of GiB/day with device-to-device
// spread (cache size, listening hours, and bug trigger rate all vary).
func SampleBuggyDailyBytes(rng *simrand.Rand) int64 {
	return int64(float64(buggyDailyBytes) * lognormal(rng, 0.5, 0.1, 8))
}
