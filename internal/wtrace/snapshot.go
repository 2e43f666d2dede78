package wtrace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Row is one origin's account in a ledger snapshot. All counts are
// integers so snapshots scale, merge, and compare exactly; derived ratios
// (write amplification) are computed only at render time.
type Row struct {
	Origin string `json:"origin"`
	// HostPages/HostBytes are logical pages the origin wrote into the FTL.
	HostPages int64 `json:"host_pages"`
	HostBytes int64 `json:"host_bytes"`
	// The write-amplification decomposition: physical NAND programs the
	// origin's data caused, split by why the FTL issued them.
	HostPrograms  int64 `json:"host_programs"`
	GCPrograms    int64 `json:"gc_programs"`
	WLPrograms    int64 `json:"wl_programs"`
	CachePrograms int64 `json:"cache_programs"`
	// PhysPages/PhysBytes are the four causes summed.
	PhysPages int64 `json:"phys_pages"`
	PhysBytes int64 `json:"phys_bytes"`
	// Erases is the origin's plurality-attributed block-erase count (P/E
	// cycles consumed); ErasePages is the page-weighted share.
	Erases     int64 `json:"erases"`
	ErasePages int64 `json:"erase_pages"`
}

func (r *Row) addFrom(o Row) {
	r.HostPages += o.HostPages
	r.HostBytes += o.HostBytes
	r.HostPrograms += o.HostPrograms
	r.GCPrograms += o.GCPrograms
	r.WLPrograms += o.WLPrograms
	r.CachePrograms += o.CachePrograms
	r.PhysPages += o.PhysPages
	r.PhysBytes += o.PhysBytes
	r.Erases += o.Erases
	r.ErasePages += o.ErasePages
}

// Snapshot is a point-in-time copy of a tracer's ledger, rows sorted by origin
// name. Snapshots support the same integer algebra as fleet metrics:
// Scale multiplies, Merge adds by origin name, so fleet aggregation is
// order-independent and byte-identical across worker counts.
type Snapshot struct {
	// PageSize is the device page size behind the page counts; zero after
	// merging snapshots from devices with different geometries.
	PageSize int64 `json:"page_size"`
	Rows     []Row `json:"rows"`
}

// Snapshot captures the tracer's ledger. Rows come out sorted by origin
// name.
func (t *Tracer) Snapshot() Snapshot {
	s := Snapshot{PageSize: t.pageSize, Rows: make([]Row, len(t.names))}
	for i, name := range t.names {
		r := &t.rows[i]
		out := Row{
			Origin:        name,
			HostPages:     r.hostPages,
			HostBytes:     r.hostBytes,
			HostPrograms:  r.programs[CauseHost],
			GCPrograms:    r.programs[CauseGC],
			WLPrograms:    r.programs[CauseWL],
			CachePrograms: r.programs[CauseCache],
			Erases:        r.erases,
			ErasePages:    r.erasePages,
		}
		out.PhysPages = out.HostPrograms + out.GCPrograms + out.WLPrograms + out.CachePrograms
		out.PhysBytes = out.PhysPages * t.pageSize
		s.Rows[i] = out
	}
	sort.Slice(s.Rows, func(i, j int) bool { return s.Rows[i].Origin < s.Rows[j].Origin })
	return s
}

// Scale multiplies every count by k — the fleet's capacity-scaling
// multiply-back, mirroring how device volumes scale to full size.
func (s *Snapshot) Scale(k int64) {
	for i := range s.Rows {
		r := &s.Rows[i]
		r.HostPages *= k
		r.HostBytes *= k
		r.HostPrograms *= k
		r.GCPrograms *= k
		r.WLPrograms *= k
		r.CachePrograms *= k
		r.PhysPages *= k
		r.PhysBytes *= k
		r.Erases *= k
		r.ErasePages *= k
	}
}

// Merge adds o into s by origin name (integer adds, so merge order never
// changes the result). Rows stay sorted by name.
func (s *Snapshot) Merge(o Snapshot) {
	if len(o.Rows) == 0 {
		return
	}
	if len(s.Rows) == 0 {
		s.PageSize = o.PageSize
	} else if s.PageSize != o.PageSize {
		s.PageSize = 0
	}
	idx := make(map[string]int, len(s.Rows))
	for i := range s.Rows {
		idx[s.Rows[i].Origin] = i
	}
	for _, r := range o.Rows {
		if i, ok := idx[r.Origin]; ok {
			s.Rows[i].addFrom(r)
		} else {
			s.Rows = append(s.Rows, r)
		}
	}
	sort.Slice(s.Rows, func(i, j int) bool { return s.Rows[i].Origin < s.Rows[j].Origin })
}

// Totals sums all rows — the device-level account the per-origin rows
// must reproduce exactly.
func (s Snapshot) Totals() Row {
	t := Row{Origin: "TOTAL"}
	for _, r := range s.Rows {
		t.addFrom(r)
	}
	return t
}

// Top returns the origin with the most physical bytes written, excluding
// "os" — the ledger's verdict on who is wearing the device out. Empty
// string if no origin has caused any physical write.
func (s Snapshot) Top() string {
	best, bestPhys := "", int64(0)
	for _, r := range s.Rows {
		if r.Origin == "os" {
			continue
		}
		if r.PhysBytes > bestPhys {
			best, bestPhys = r.Origin, r.PhysBytes
		}
	}
	return best
}

// csvHeader is the ledger CSV column set. write_amp is derived
// (phys_bytes / host_bytes) at render time only.
const csvHeader = "origin,host_pages,host_bytes,host_programs,gc_programs,wl_programs,cache_programs,phys_pages,phys_bytes,erases,erase_pages,write_amp\n"

func writeCSVRow(bw *bufio.Writer, r Row) {
	bw.WriteString(r.Origin)
	for _, v := range []int64{r.HostPages, r.HostBytes, r.HostPrograms, r.GCPrograms,
		r.WLPrograms, r.CachePrograms, r.PhysPages, r.PhysBytes, r.Erases, r.ErasePages} {
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatInt(v, 10))
	}
	bw.WriteByte(',')
	wa := 0.0
	if r.HostBytes > 0 {
		wa = float64(r.PhysBytes) / float64(r.HostBytes)
	}
	bw.WriteString(strconv.FormatFloat(wa, 'g', 6, 64))
	bw.WriteByte('\n')
}

// WriteCSV renders the ledger: one row per origin sorted by name, then a
// TOTAL row that equals the column sums — the decomposition identity,
// checkable by a shell one-liner (or cmd/wtracecheck).
func (s Snapshot) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(csvHeader)
	for _, r := range s.Rows {
		writeCSVRow(bw, r)
	}
	writeCSVRow(bw, s.Totals())
	return bw.Flush()
}

// WriteLabeledCSV appends the snapshot (plus its TOTAL row) to a long-form
// CSV whose first column is a run label — the multi-run variant of
// WriteCSV. The header line is emitted only when header is true, so
// several runs can share one file.
func (s Snapshot) WriteLabeledCSV(w io.Writer, label string, header bool) error {
	bw := bufio.NewWriter(w)
	if header {
		bw.WriteString("label," + csvHeader)
	}
	rows := append(append([]Row(nil), s.Rows...), s.Totals())
	for _, r := range rows {
		bw.WriteString(label)
		bw.WriteByte(',')
		writeCSVRow(bw, r)
	}
	return bw.Flush()
}

// WriteJSON renders the snapshot plus its TOTAL row as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	out := struct {
		PageSize int64 `json:"page_size"`
		Rows     []Row `json:"rows"`
		Total    Row   `json:"total"`
	}{s.PageSize, s.Rows, s.Totals()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
