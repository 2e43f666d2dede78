package report

import (
	"bufio"
	"io"
	"strconv"
)

// ChromeTrace streams one Chrome trace-event JSON object (load it in
// chrome://tracing, https://ui.perfetto.dev or speedscope). It owns the
// format's fixed parts — header, comma discipline, metadata records, the
// name/ph/pid/tid/ts/dur prefix of an event, the dropped-count marker and
// the trailer; a caller decides only its process/thread layout and each
// event's args. It emits by hand because event volume makes reflective
// JSON encoding the dominant cost, but the output is plain standard JSON.
//
// Use: NewChromeTrace, any mix of ProcessName/ThreadName/Dropped and
// Event…EndEvent, then Close. Write errors surface at Close.
type ChromeTrace struct {
	bw    *bufio.Writer
	wrote bool // a record precedes the next one
	args  int  // args written into the open event
}

// NewChromeTrace starts a trace on w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	c := &ChromeTrace{bw: bufio.NewWriter(w)}
	c.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return c
}

func (c *ChromeTrace) comma() {
	if c.wrote {
		c.bw.WriteByte(',')
	}
	c.wrote = true
}

func (c *ChromeTrace) meta(kind string, pid, tid int, name string) {
	c.comma()
	c.bw.WriteString(`{"name":"` + kind + `","ph":"M","pid":`)
	c.bw.WriteString(strconv.Itoa(pid))
	c.bw.WriteString(`,"tid":`)
	c.bw.WriteString(strconv.Itoa(tid))
	c.bw.WriteString(`,"args":{"name":`)
	c.bw.WriteString(strconv.Quote(name))
	c.bw.WriteString(`}}`)
}

// ProcessName labels process pid in the viewer.
func (c *ChromeTrace) ProcessName(pid int, name string) { c.meta("process_name", pid, 0, name) }

// ThreadName labels thread tid of process pid.
func (c *ChromeTrace) ThreadName(pid, tid int, name string) { c.meta("thread_name", pid, tid, name) }

// Event opens one event: ph 'X' is a complete event of dur microseconds,
// ph 'i' a thread-scoped instant (dur is ignored). ts is in microseconds.
// Add its args with Int and Str, then call EndEvent.
func (c *ChromeTrace) Event(name string, ph byte, pid, tid int, ts, dur int64) {
	c.comma()
	c.args = 0
	c.bw.WriteString(`{"name":`)
	c.bw.WriteString(strconv.Quote(name))
	c.bw.WriteString(`,"ph":"`)
	c.bw.WriteByte(ph)
	c.bw.WriteString(`","pid":`)
	c.bw.WriteString(strconv.Itoa(pid))
	c.bw.WriteString(`,"tid":`)
	c.bw.WriteString(strconv.Itoa(tid))
	c.bw.WriteString(`,"ts":`)
	c.bw.WriteString(strconv.FormatInt(ts, 10))
	switch ph {
	case 'X':
		c.bw.WriteString(`,"dur":`)
		c.bw.WriteString(strconv.FormatInt(dur, 10))
	case 'i':
		c.bw.WriteString(`,"s":"t"`)
	}
	c.bw.WriteString(`,"args":{`)
}

func (c *ChromeTrace) key(k string) {
	if c.args > 0 {
		c.bw.WriteByte(',')
	}
	c.args++
	c.bw.WriteByte('"')
	c.bw.WriteString(k)
	c.bw.WriteString(`":`)
}

// Int adds an integer arg to the open event. Keys are written verbatim.
func (c *ChromeTrace) Int(key string, v int64) {
	c.key(key)
	c.bw.WriteString(strconv.FormatInt(v, 10))
}

// Str adds a string arg to the open event.
func (c *ChromeTrace) Str(key, v string) {
	c.key(key)
	c.bw.WriteString(strconv.Quote(v))
}

// EndEvent closes the event Event opened.
func (c *ChromeTrace) EndEvent() { c.bw.WriteString(`}}`) }

// Dropped marks, as a global instant on process pid, that n records of
// kind what ("events", "spans") were lost at a buffer cap. n <= 0 writes
// nothing.
func (c *ChromeTrace) Dropped(pid int, what string, n int64) {
	if n <= 0 {
		return
	}
	c.comma()
	c.bw.WriteString(`{"name":"` + what + ` dropped: `)
	c.bw.WriteString(strconv.FormatInt(n, 10))
	c.bw.WriteString(`","ph":"i","s":"g","pid":`)
	c.bw.WriteString(strconv.Itoa(pid))
	c.bw.WriteString(`,"tid":0,"ts":0,"args":{}}`)
}

// Close writes the trailer and flushes, returning the first write error.
func (c *ChromeTrace) Close() error {
	c.bw.WriteString("]}\n")
	return c.bw.Flush()
}
