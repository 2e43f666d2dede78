// Command wtracecheck validates wear-attribution artifacts: a ledger CSV
// (flashsim run -wear-ledger, fleetsim -wear-trace, or a flashsim exhibit
// labeled ledger) and/or a Chrome trace-event JSON (flashsim run/exhibit
// -wear-trace). It is the teeth of the `make wtrace` smoke target: the
// checks are exactly the ledger's advertised invariants —
//
//   - every row's phys_pages equals its four cause columns summed
//     (host_programs + gc_programs + wl_programs + cache_programs);
//   - the TOTAL row equals the column sums of the origin rows — the
//     write-amplification decomposition identity;
//   - the Chrome file is well-formed JSON of the trace-event format with
//     at least one event.
//
// Usage:
//
//	wtracecheck -ledger wear.csv [-trace trace.json]
//
// Exit codes: 0 when every check passes, 1 when any fails, 2 on usage.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
)

func main() {
	ledger := flag.String("ledger", "", "wear ledger CSV to validate")
	trace := flag.String("trace", "", "Chrome trace-event JSON to validate")
	flag.Parse()
	if *ledger == "" && *trace == "" {
		flag.Usage()
		os.Exit(2)
	}
	ok := true
	if *ledger != "" {
		if err := checkLedger(*ledger); err != nil {
			fmt.Fprintf(os.Stderr, "wtracecheck: %s: %v\n", *ledger, err)
			ok = false
		} else {
			fmt.Printf("wtracecheck: %s: ledger identities hold\n", *ledger)
		}
	}
	if *trace != "" {
		n, err := checkTrace(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wtracecheck: %s: %v\n", *trace, err)
			ok = false
		} else {
			fmt.Printf("wtracecheck: %s: well-formed trace, %d events\n", *trace, n)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// ledger column indices relative to the "origin" column. A flashsim exhibit
// labeled ledger has a leading "label" column; the offset is detected from
// the header.
var intCols = []string{"host_pages", "host_bytes", "host_programs", "gc_programs",
	"wl_programs", "cache_programs", "phys_pages", "phys_bytes", "erases", "erase_pages"}

// checkLedger parses the CSV and verifies the decomposition identities.
// Labeled (multi-run) ledgers are checked per label: each run's TOTAL row
// must equal its own origin rows' sums.
func checkLedger(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	off := 0
	if len(header) > 0 && header[0] == "label" {
		off = 1
	}
	if len(header) < off+1+len(intCols) || header[off] != "origin" {
		return fmt.Errorf("unexpected header %q", header)
	}
	for i, name := range intCols {
		if header[off+1+i] != name {
			return fmt.Errorf("column %d: got %q, want %q", off+1+i, header[off+1+i], name)
		}
	}

	sums := map[string][]int64{}   // per-label running column sums
	totals := map[string][]int64{} // per-label TOTAL row
	rows := 0
	for line := 2; ; line++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		label := ""
		if off == 1 {
			label = rec[0]
		}
		vals := make([]int64, len(intCols))
		for i := range intCols {
			v, err := strconv.ParseInt(rec[off+1+i], 10, 64)
			if err != nil {
				return fmt.Errorf("line %d, %s: %w", line, intCols[i], err)
			}
			vals[i] = v
		}
		// phys_pages (index 6) must equal the four program causes summed.
		if causes := vals[2] + vals[3] + vals[4] + vals[5]; vals[6] != causes {
			return fmt.Errorf("line %d (%s): phys_pages %d != cause sum %d",
				line, rec[off], vals[6], causes)
		}
		if rec[off] == "TOTAL" {
			if _, dup := totals[label]; dup {
				return fmt.Errorf("line %d: duplicate TOTAL for label %q", line, label)
			}
			totals[label] = vals
			continue
		}
		rows++
		s, okLbl := sums[label]
		if !okLbl {
			s = make([]int64, len(intCols))
			sums[label] = s
		}
		for i, v := range vals {
			s[i] += v
		}
	}
	if rows == 0 {
		return fmt.Errorf("no origin rows")
	}
	for label, s := range sums {
		tot, okLbl := totals[label]
		if !okLbl {
			return fmt.Errorf("label %q: no TOTAL row", label)
		}
		for i, v := range s {
			if tot[i] != v {
				return fmt.Errorf("label %q: TOTAL %s = %d, but origin rows sum to %d — decomposition identity broken",
					label, intCols[i], tot[i], v)
			}
		}
	}
	return nil
}

// checkTrace verifies the file is a JSON trace-event object with a
// non-empty traceEvents array whose entries carry the required keys.
func checkTrace(path string) (events int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			Ts   *float64        `json:"ts"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("empty traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			return 0, fmt.Errorf("event %d: missing name/ph/pid/tid", i)
		}
		// Metadata events have no timestamp; every other phase needs one.
		if ev.Ph != "M" && ev.Ts == nil {
			return 0, fmt.Errorf("event %d (%s, ph=%s): missing ts", i, ev.Name, ev.Ph)
		}
	}
	return len(doc.TraceEvents), nil
}
