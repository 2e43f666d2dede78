package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Demo", "Device", "GiB", "Hours")
	tbl.AddRow("eMMC 8GB", 992.0, 14.1)
	tbl.AddRow("eMMC 16GB", 2210.5, 28.23)
	if len(tbl.rows) != 2 {
		t.Fatalf("Rows = %d", len(tbl.rows))
	}
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Demo", "Device", "eMMC 8GB", "992.00", "2210.50", "28.23", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: the header and rows share the Device column width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestTableRendersIntsAndStrings(t *testing.T) {
	tbl := NewTable("", "K", "V")
	tbl.AddRow(42, "x")
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "42") {
		t.Fatal("int cell lost")
	}
	if strings.HasPrefix(sb.String(), "\n") {
		t.Fatal("empty title printed a blank line")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("Figure 1", "Device", "MiB/s")
	tbl.AddRow("eMMC, 8GB", 19.5)
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "# Figure 1\nDevice,MiB/s\n\"eMMC, 8GB\",19.50\n"; sb.String() != want {
		t.Fatalf("got %q, want %q", sb.String(), want)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:             "512 B",
		2048:            "2.00 KiB",
		5 << 20:         "5.00 MiB",
		3 << 30:         "3.00 GiB",
		(3 << 40) + 512: "3.00 TiB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int64]string{
		512:       "0.5KiB",
		4096:      "4KiB",
		256 << 10: "256KiB",
		16 << 20:  "16MiB",
	}
	for in, want := range cases {
		if got := SizeLabel(in); got != want {
			t.Errorf("SizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Figure 3", "h")
	c.Add("eMMC 8GB", 14.1)
	c.Add("Samsung S6", 28.2)
	c.Add("zero", 0)
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "28.20 h") {
		t.Fatalf("chart output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The largest value gets the longest bar.
	if strings.Count(lines[2], "#") <= strings.Count(lines[1], "#") {
		t.Fatal("bar lengths not proportional")
	}
	if strings.Count(lines[3], "#") != 0 {
		t.Fatal("zero value drew a bar")
	}
}
