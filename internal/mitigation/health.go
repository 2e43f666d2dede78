package mitigation

import (
	"time"

	"flashwear/internal/device"
	"flashwear/internal/ftl"
)

// AlertLevel grades a health observation.
type AlertLevel int

const (
	AlertNone     AlertLevel = iota
	AlertInfo                // lifetime consumption has started
	AlertWarning             // >= 80% consumed (JEDEC warning)
	AlertCritical            // >= 90% consumed or device unreliable
)

// String implements fmt.Stringer.
func (l AlertLevel) String() string {
	switch l {
	case AlertNone:
		return "none"
	case AlertInfo:
		return "info"
	case AlertWarning:
		return "warning"
	case AlertCritical:
		return "critical"
	default:
		return "unknown"
	}
}

// HealthSample is one S.M.A.R.T.-style reading.
type HealthSample struct {
	At        time.Duration
	LevelA    int
	LevelB    int
	PreEOL    int
	Alert     AlertLevel
	Untrusted bool // register read was out of spec (BLU-class firmware)
}

// WearWatch is §4.5's first proposal: "expose and monitor the wear-out
// indicator to applications and users, similarly to the S.M.A.R.T. system
// on disks". It polls the device's JEDEC registers and grades them.
type WearWatch struct {
	Dev     *device.Device
	history []HealthSample
}

// NewWearWatch builds a watcher for a device.
func NewWearWatch(dev *device.Device) *WearWatch { return &WearWatch{Dev: dev} }

// Sample reads the registers now and appends to the history.
func (w *WearWatch) Sample(now time.Duration) HealthSample {
	a := w.Dev.WearIndicator(ftl.PoolA)
	b := w.Dev.WearIndicator(ftl.PoolB)
	pre := w.Dev.PreEOLInfo()
	s := HealthSample{At: now, LevelA: a, LevelB: b, PreEOL: pre}
	if a < 1 || a > 11 || b < 1 || b > 11 || pre < 1 || pre > 3 {
		s.Untrusted = true
		s.Alert = AlertCritical // can't trust it: assume the worst
	} else {
		worst := a
		if b > worst {
			worst = b
		}
		switch {
		case w.Dev.Failed() || worst >= 11 || pre >= 3:
			s.Alert = AlertCritical
		case worst >= 9 || pre >= 2:
			s.Alert = AlertWarning
		case worst >= 2:
			s.Alert = AlertInfo
		default:
			s.Alert = AlertNone
		}
	}
	w.history = append(w.history, s)
	return s
}

// History returns all samples taken.
func (w *WearWatch) History() []HealthSample { return w.history }

// FirstAlertAt returns when the watch first reached at least the given
// level, and whether it ever did. This is the "advance notice" metric of
// the mitigation evaluation: how long before destruction a user who checked
// the indicator would have been warned.
func (w *WearWatch) FirstAlertAt(level AlertLevel) (time.Duration, bool) {
	for _, s := range w.history {
		if s.Alert >= level {
			return s.At, true
		}
	}
	return 0, false
}

// ProjectedEOL extrapolates the time remaining until estimated end of life
// from the observed wear trend between the first and last trusted samples.
// It returns ok=false when the history is too short or wear has not moved.
// This is the number a health UI would surface: "at this rate, the storage
// is gone in N days".
func (w *WearWatch) ProjectedEOL(now time.Duration) (remaining time.Duration, ok bool) {
	var first, last *HealthSample
	for i := range w.history {
		s := &w.history[i]
		if s.Untrusted {
			continue
		}
		if first == nil {
			first = s
		}
		last = s
	}
	if first == nil || last == nil || last.At <= first.At {
		return 0, false
	}
	// Level midpoints approximate consumed life: level n ~ (n-0.5)*10%.
	lifeOf := func(s *HealthSample) float64 {
		lvl := s.LevelB
		if s.LevelA > lvl {
			lvl = s.LevelA
		}
		return (float64(lvl) - 0.5) / 10
	}
	l0, l1 := lifeOf(first), lifeOf(last)
	if l1 <= l0 {
		return 0, false
	}
	rate := (l1 - l0) / float64(last.At-first.At) // life fraction per ns
	left := 1.0 - l1
	if left <= 0 {
		return 0, true
	}
	return time.Duration(left / rate), true
}
