package wtrace

import (
	"io"
	"strconv"

	"flashwear/internal/report"
)

// Event is one trace record in a compact typed form (no per-event maps or
// interfaces, so recording allocates only on buffer growth). Ts and Dur
// are simulated-clock microseconds, the unit Chrome's trace viewer
// expects.
type Event struct {
	Name   string
	Ph     byte // 'X' complete, 'i' instant
	Tid    int32
	Ts     int64
	Dur    int64
	Origin Origin
	Block  int32
	Pages  int32
	Off    int64
	Bytes  int64
}

// Track (tid) layout inside a process: low tids are FTL-internal
// activity, host writes get one track per origin at tidHostBase+origin.
const (
	tidGC       = 2
	tidWL       = 3
	tidErase    = 5
	tidHostBase = 100
)

// ProcessTrace is one device's events plus the naming needed to render
// them: in the Chrome trace each device becomes a process, each activity
// class a named thread.
type ProcessTrace struct {
	// Name labels the process in the viewer ("eMMC 8GB", "Moto E 8GB/f2fs").
	Name string
	// Pid is the trace process id; WriteChrome assigns 1..n when zero.
	Pid int
	// OriginNames maps Origin ids to names for thread labels and args.
	OriginNames []string
	// Events is the recorded buffer.
	Events []Event
	// Dropped counts events lost at the buffer cap.
	Dropped int64
}

// Process packages the tracer's event buffer for WriteChrome.
func (t *Tracer) Process(name string) ProcessTrace {
	return ProcessTrace{
		Name:        name,
		OriginNames: t.Origins(),
		Events:      t.events,
		Dropped:     t.dropped,
	}
}

// WriteChrome renders processes as a Chrome trace-event JSON object
// through report.ChromeTrace; this function is the track layout and the
// per-event args.
func WriteChrome(w io.Writer, procs ...ProcessTrace) error {
	ct := report.NewChromeTrace(w)
	for i, p := range procs {
		pid := p.Pid
		if pid == 0 {
			pid = i + 1
		}
		ct.ProcessName(pid, p.Name)
		ct.ThreadName(pid, tidGC, "ftl:gc")
		ct.ThreadName(pid, tidWL, "ftl:wl")
		ct.ThreadName(pid, tidErase, "nand:erase")
		for org, name := range p.OriginNames {
			ct.ThreadName(pid, tidHostBase+org, "host:"+name)
		}
		for _, e := range p.Events {
			ct.Event(e.Name, e.Ph, pid, int(e.Tid), e.Ts, e.Dur)
			if int(e.Origin) < len(p.OriginNames) {
				ct.Str("origin", p.OriginNames[e.Origin])
			} else {
				ct.Str("origin", "origin-"+strconv.Itoa(int(e.Origin)))
			}
			if e.Ph == 'X' {
				ct.Int("off", e.Off)
				ct.Int("bytes", e.Bytes)
			} else {
				ct.Int("block", int64(e.Block))
				ct.Int("pages", int64(e.Pages))
			}
			ct.EndEvent()
		}
		ct.Dropped(pid, "events", p.Dropped)
	}
	return ct.Close()
}
