package wtrace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
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
		OriginNames: t.led.Origins(),
		Events:      t.events,
		Dropped:     t.dropped,
	}
}

// WriteChrome renders processes as a Chrome trace-event JSON object
// (load the file in chrome://tracing or https://ui.perfetto.dev). The
// writer emits by hand — the event volume makes reflective JSON encoding
// the dominant cost otherwise — but the output is plain standard JSON.
func WriteChrome(w io.Writer, procs ...ProcessTrace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}
	meta := func(pid int, name, key, value string, tid int) {
		comma()
		fmt.Fprintf(bw, `{"name":%q,"ph":"M","pid":%d,"tid":%d,"args":{%q:%q}}`,
			name, pid, tid, key, value)
	}
	for i, p := range procs {
		pid := p.Pid
		if pid == 0 {
			pid = i + 1
		}
		meta(pid, "process_name", "name", p.Name, 0)
		meta(pid, "thread_name", "name", "ftl:gc", tidGC)
		meta(pid, "thread_name", "name", "ftl:wl", tidWL)
		meta(pid, "thread_name", "name", "nand:erase", tidErase)
		for org, name := range p.OriginNames {
			meta(pid, "thread_name", "name", "host:"+name, tidHostBase+org)
		}
		orgName := func(o Origin) string {
			if int(o) < len(p.OriginNames) {
				return p.OriginNames[o]
			}
			return "origin-" + strconv.Itoa(int(o))
		}
		for _, e := range p.Events {
			comma()
			bw.WriteString(`{"name":`)
			bw.WriteString(strconv.Quote(e.Name))
			bw.WriteString(`,"ph":"`)
			bw.WriteByte(e.Ph)
			bw.WriteString(`","pid":`)
			bw.WriteString(strconv.Itoa(pid))
			bw.WriteString(`,"tid":`)
			bw.WriteString(strconv.FormatInt(int64(e.Tid), 10))
			bw.WriteString(`,"ts":`)
			bw.WriteString(strconv.FormatInt(e.Ts, 10))
			if e.Ph == 'X' {
				bw.WriteString(`,"dur":`)
				bw.WriteString(strconv.FormatInt(e.Dur, 10))
			}
			if e.Ph == 'i' {
				bw.WriteString(`,"s":"t"`)
			}
			bw.WriteString(`,"args":{"origin":`)
			bw.WriteString(strconv.Quote(orgName(e.Origin)))
			if e.Ph == 'X' {
				bw.WriteString(`,"off":`)
				bw.WriteString(strconv.FormatInt(e.Off, 10))
				bw.WriteString(`,"bytes":`)
				bw.WriteString(strconv.FormatInt(e.Bytes, 10))
			} else {
				bw.WriteString(`,"block":`)
				bw.WriteString(strconv.FormatInt(int64(e.Block), 10))
				bw.WriteString(`,"pages":`)
				bw.WriteString(strconv.FormatInt(int64(e.Pages), 10))
			}
			bw.WriteString(`}}`)
		}
		if p.Dropped > 0 {
			comma()
			fmt.Fprintf(bw, `{"name":"events dropped: %d","ph":"i","s":"g","pid":%d,"tid":0,"ts":0,"args":{}}`,
				p.Dropped, pid)
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}
