package fleetd

// Registry audit (satellite of DESIGN.md §14): every exported sample on
// /metrics must belong to a family with # HELP and # TYPE preambles, and
// the families the dashboards and CI smoke test depend on must all be
// present on a fresh registry — before any campaign has run.

import (
	"bytes"
	"strings"
	"testing"

	"flashwear/internal/runtrace"
)

// promFamilies parses a Prometheus text exposition into (families with
// HELP, families with TYPE→type, sample metric names in order).
func promFamilies(t *testing.T, text string) (help map[string]bool, typ map[string]string, samples []string) {
	t.Helper()
	help = map[string]bool{}
	typ = map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unrecognized comment line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		samples = append(samples, name)
	}
	return help, typ, samples
}

// familyOf maps a sample metric name back to its family, undoing the
// histogram suffixes.
func familyOf(name string, typ map[string]string) (string, bool) {
	if _, ok := typ[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if fam, ok := strings.CutSuffix(name, suffix); ok && typ[fam] == "histogram" {
			return fam, true
		}
	}
	return "", false
}

func TestMetricsRegistryWellFormed(t *testing.T) {
	m := NewMetrics()
	var buf bytes.Buffer
	if err := m.Registry.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	help, typ, samples := promFamilies(t, buf.String())

	for _, name := range samples {
		fam, ok := familyOf(name, typ)
		if !ok {
			t.Errorf("sample %q has no # TYPE preamble", name)
			continue
		}
		if !help[fam] {
			t.Errorf("family %q has # TYPE but no # HELP", fam)
		}
	}
	for fam := range typ {
		if !help[fam] {
			t.Errorf("family %q has # TYPE but no # HELP", fam)
		}
	}

	// The contract list: every family the README, Grafana notes, and the
	// CI smoke test grep for. Adding a family is fine; renaming or
	// dropping one breaks scrapers and must show up here.
	required := []string{
		"fleetd_cells_computed_total",
		"fleetd_cells_reused_total",
		"fleetd_device_days_total",
		"fleetd_device_days_per_second",
		"fleetd_checkpoint_bytes_total",
		"fleetd_checkpoint_writes_total",
		"fleetd_checkpoint_fsync_seconds",
		"fleetd_checkpoint_retries_total",
		"fleetd_checkpoint_degraded",
		"fleetd_journal_persist_errors_total",
		"fleetd_journal_recoveries_total",
		"fleetd_campaign_submits_total",
		"fleetd_campaign_resumes_total",
		"fleetd_campaign_forks_total",
		"fleetd_http_requests_total",
		"fleetd_http_request_seconds",
		"fleetd_http_panics_total",
		"fleetd_phase_seconds",
		"fleetd_runtime_goroutines",
		"fleetd_runtime_heap_alloc_bytes",
		"fleetd_runtime_heap_sys_bytes",
		"fleetd_runtime_gc_pause_seconds_total",
		"fleetd_runtime_gc_cycles_total",
	}
	for _, fam := range required {
		if _, ok := typ[fam]; !ok {
			t.Errorf("required family %q missing from a fresh registry", fam)
		}
	}

	// The phase histogram must expose one child per phase on first
	// scrape, so dashboards see all six series from t=0.
	text := buf.String()
	for p := runtrace.Phase(0); p < runtrace.NumPhases; p++ {
		want := `fleetd_phase_seconds_count{phase="` + p.String() + `"}`
		if !strings.Contains(text, want) {
			t.Errorf("fresh registry missing %s", want)
		}
	}
}

// TestJournalFaultsOnMetrics: when a campaign's event journal fails on the
// host, /metrics shows the failures and the replays that healed them.
func TestJournalFaultsOnMetrics(t *testing.T) {
	m, _ := tortureManager(t, t.TempDir(), "class=journal,fault=eio,on=sync,at=1;4")
	c, err := m.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Metrics().Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	values := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			values[name] = v
		}
	}
	for _, name := range []string{"fleetd_journal_persist_errors_total", "fleetd_journal_recoveries_total"} {
		if v := values[name]; v == "" || v == "0" {
			t.Errorf("%s = %q after two failed journal syncs, want at least 1", name, v)
		}
	}
}
