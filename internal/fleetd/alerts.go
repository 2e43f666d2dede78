package fleetd

import (
	"fmt"

	"flashwear/internal/fleet"
	"flashwear/internal/obs"
)

// Fleet-health alerting is sim-domain: every rule below reads only the
// campaign's committed day series — integer sums that are a pure function
// of the campaign spec (minus scheduling knobs) — compares with integer
// arithmetic, and renders its reading as an exact integer ratio. No wall
// clock, no floats, no map iteration. The resulting alert events are
// therefore byte-identical (modulo the journal's Seq/WallMs ops envelope)
// across shard counts, worker counts, checkpoint cadence, and
// crash/resume, which TestAlertEventInvariance pins.
//
// Rules are edge-triggered on days: a rule fires for day d when its
// condition holds at d and did not hold at d-1 (day 0 compares against an
// all-false baseline), so a persistently bad fleet alerts once per
// excursion, not once per day. The fired-set (restored from the journal on
// adoption) dedupes re-derivations when an idempotent sweep re-walks
// epochs after a resume.

// alertEvent is a sim-domain finding awaiting its journal envelope.
type alertEvent struct {
	typ    string // "alert" or "brick_milestone"
	day    int    // 1-based simulated day
	rule   string
	value  string // exact integer ratio, e.g. "3/1000"
	detail string
}

func (a alertEvent) event() obs.Event {
	return obs.Event{Type: a.typ, Sim: true, Day: a.day, Rule: a.rule, Value: a.value, Detail: a.detail}
}

// alertRule evaluates one day row. rows[d] is the fleet at the end of day
// d (0-based); devices is the full population.
type alertRule struct {
	name   string
	detail string
	// cond reports whether the rule's condition holds at day d.
	cond func(rows [][]int64, d int, devices int64) bool
	// value renders the reading for day d as an integer ratio.
	value func(rows [][]int64, d int, devices int64) string
}

// newBricks is the day-over-day brick delta.
func newBricks(rows [][]int64, d int) int64 {
	if d == 0 {
		return rows[0][fleet.ColBricked]
	}
	return rows[d][fleet.ColBricked] - rows[d-1][fleet.ColBricked]
}

// deltas for the write-amplification spike rule.
func hostFlashDelta(rows [][]int64, d int) (host, flash int64) {
	if d == 0 {
		return rows[0][fleet.ColHostBytes], rows[0][fleet.ColFlashBytes]
	}
	return rows[d][fleet.ColHostBytes] - rows[d-1][fleet.ColHostBytes], rows[d][fleet.ColFlashBytes] - rows[d-1][fleet.ColFlashBytes]
}

// alertRules is the fixed rule table. Thresholds are per-mille / percent
// integers so evaluation never touches floating point.
var alertRules = []alertRule{
	{
		name:   "brick_rate",
		detail: "daily brick rate at or above 5 per 1000 devices",
		cond: func(rows [][]int64, d int, devices int64) bool {
			nb := newBricks(rows, d)
			return nb > 0 && nb*1000 >= devices*5
		},
		value: func(rows [][]int64, d int, devices int64) string {
			return fmt.Sprintf("%d/%d", newBricks(rows, d), devices)
		},
	},
	{
		name:   "pre_eol_pct",
		detail: "read-only (PRE_EOL) devices at or above 5% of the fleet",
		cond: func(rows [][]int64, d int, devices int64) bool {
			ro := rows[d][fleet.ColReadOnly]
			return ro > 0 && ro*100 >= devices*5
		},
		value: func(rows [][]int64, d int, devices int64) string {
			return fmt.Sprintf("%d/%d", rows[d][fleet.ColReadOnly], devices)
		},
	},
	{
		name:   "wa_spike",
		detail: "fleet write amplification at or above 3x for the day",
		cond: func(rows [][]int64, d int, devices int64) bool {
			host, flash := hostFlashDelta(rows, d)
			return host > 0 && flash >= 3*host
		},
		value: func(rows [][]int64, d int, devices int64) string {
			host, flash := hostFlashDelta(rows, d)
			return fmt.Sprintf("%d/%d", flash, host)
		},
	},
	{
		name:   "rber_trend",
		detail: "fleet raw BER doubled from day 1 and crossed 1e-6 per device",
		cond: func(rows [][]int64, d int, devices int64) bool {
			if d == 0 {
				return false
			}
			cur := rows[d][fleet.ColRawBERFemto]
			// 1e-6 mean RBER = 1e9 femto units per device.
			return cur >= 2*rows[0][fleet.ColRawBERFemto] && cur >= devices*1_000_000_000
		},
		value: func(rows [][]int64, d int, devices int64) string {
			return fmt.Sprintf("%d/%d", rows[d][fleet.ColRawBERFemto], rows[0][fleet.ColRawBERFemto])
		},
	},
}

// brickCountMilestones and brickPctMilestones fire once each when the
// cumulative brick count first reaches them.
var brickCountMilestones = []int64{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000}
var brickPctMilestones = []int64{1, 5, 10, 25, 50}

// alertState carries the fired-set across epoch commits and resumes.
type alertState struct {
	fired map[string]bool // Event.SimKey()
}

func newAlertState() *alertState {
	return &alertState{fired: map[string]bool{}}
}

// seed marks already-journaled sim events as fired, so an adopted or
// resumed campaign never duplicates them.
func (a *alertState) seed(events []obs.Event) {
	for _, e := range events {
		if e.Sim {
			a.fired[e.SimKey()] = true
		}
	}
}

// scan evaluates every rule over rows and returns the not-yet-fired
// findings in deterministic order (day-major, then rule table order,
// then milestones), marking them fired. rows is the full committed
// series so edge detection sees day d-1 even across epoch boundaries.
func (a *alertState) scan(rows [][]int64, devices int64) []alertEvent {
	var out []alertEvent
	emit := func(ev alertEvent) {
		key := obs.Event{Type: ev.typ, Rule: ev.rule, Day: ev.day}.SimKey()
		if a.fired[key] {
			return
		}
		a.fired[key] = true
		out = append(out, ev)
	}
	for d := range rows {
		for _, r := range alertRules {
			if r.cond(rows, d, devices) && (d == 0 || !r.cond(rows, d-1, devices)) {
				emit(alertEvent{typ: "alert", day: d + 1, rule: r.name,
					value: r.value(rows, d, devices), detail: r.detail})
			}
		}
		bricked := rows[d][fleet.ColBricked]
		prev := int64(0)
		if d > 0 {
			prev = rows[d-1][fleet.ColBricked]
		}
		for _, n := range brickCountMilestones {
			if bricked >= n && prev < n {
				emit(alertEvent{typ: "brick_milestone", day: d + 1,
					rule:   fmt.Sprintf("count_%d", n),
					value:  fmt.Sprintf("%d/%d", bricked, devices),
					detail: fmt.Sprintf("cumulative bricked devices reached %d", n)})
			}
		}
		for _, p := range brickPctMilestones {
			if bricked*100 >= devices*p && prev*100 < devices*p {
				emit(alertEvent{typ: "brick_milestone", day: d + 1,
					rule:   fmt.Sprintf("pct_%d", p),
					value:  fmt.Sprintf("%d/%d", bricked, devices),
					detail: fmt.Sprintf("cumulative bricked devices reached %d%% of the fleet", p)})
			}
		}
	}
	return out
}
