package fleetd

import (
	"bytes"
	"testing"

	"flashwear/internal/fleet"
)

// tinySpec is the shared test campaign: small population, short horizon,
// aggressive scale so a run takes well under a second per device-day.
func tinySpec() CampaignSpec {
	return CampaignSpec{
		Name:      "tiny",
		Devices:   4,
		Days:      5,
		Seed:      42,
		Scale:     65536,
		Buggy:     0.25,
		Attack:    0.25,
		WearTrace: true,
		Workers:   2,
	}
}

// runToEnd submits spec on a fresh manager and waits for completion.
func runToEnd(t *testing.T, dataDir string, spec CampaignSpec) *Campaign {
	t.Helper()
	m, err := NewManager(dataDir)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	c, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("campaign failed: %v", err)
	}
	if got := c.State(); got != StateDone {
		t.Fatalf("state = %s, want done", got)
	}
	return c
}

func TestCampaignInMemory(t *testing.T) {
	c := runToEnd(t, "", tinySpec())
	series := c.Series()
	if got, want := len(series.Rows), 5; got != want {
		t.Fatalf("series has %d rows, want %d", got, want)
	}
	for k, r := range series.Rows {
		if r[fleet.ColDevices] != 4 {
			t.Errorf("day %d: devices = %d, want 4", k, r[fleet.ColDevices])
		}
	}
	agg, final := c.Aggregate()
	if !final {
		t.Fatal("Aggregate not final after Wait")
	}
	if agg.Total.Devices != 4 {
		t.Errorf("aggregate devices = %d, want 4", agg.Total.Devices)
	}
	if len(c.Ledger().Rows) == 0 {
		t.Error("wear-traced campaign has empty ledger")
	}
	var buf bytes.Buffer
	if err := series.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if got := buf.String(); len(got) == 0 {
		t.Error("empty series CSV")
	}
}
