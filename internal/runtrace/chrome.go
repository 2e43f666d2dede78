package runtrace

import (
	"io"
	"sort"
	"strconv"

	"flashwear/internal/report"
)

// Chrome trace layout: each shard is a process (plus one "campaign"
// process for shard -1 work), each phase a named thread inside it, so
// the viewer's per-process timelines line up with the worker pool and
// the thread names with the phase split in /metrics.
const (
	pidCampaign = 1
	pidShard0   = 2 // shard n renders as pid n+pidShard0
)

// WriteChrome renders the buffered spans of the current (or last)
// recording window as a Chrome trace-event JSON object through
// report.ChromeTrace. ts/dur are wall-clock microseconds relative to the
// window start.
func (t *Tracer) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()

	// Collect the shard set for process metadata (collect/sort/iterate).
	shardSet := map[int32]bool{}
	for _, s := range spans {
		shardSet[s.Shard] = true
	}
	shards := make([]int32, 0, len(shardSet))
	for s := range shardSet {
		shards = append(shards, s)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i] < shards[j] })

	pid := func(shard int32) int {
		if shard < 0 {
			return pidCampaign
		}
		return int(shard) + pidShard0
	}

	ct := report.NewChromeTrace(w)
	for _, s := range shards {
		procName := "campaign"
		if s >= 0 {
			procName = "shard " + strconv.Itoa(int(s))
		}
		ct.ProcessName(pid(s), procName)
		for p := Phase(0); p < NumPhases; p++ {
			ct.ThreadName(pid(s), int(p)+1, p.String())
		}
	}
	for _, s := range spans {
		ct.Event(s.Phase.String(), 'X', pid(s.Shard), int(s.Phase)+1,
			s.Start.Microseconds(), s.Dur.Microseconds())
		ct.Int("epoch", int64(s.Epoch))
		if s.Device >= 0 {
			ct.Int("device", int64(s.Device))
		}
		ct.EndEvent()
	}
	ct.Dropped(pidCampaign, "spans", dropped)
	return ct.Close()
}
