package coord

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// mapFormatVersion is the wire format's version header. Parsers accept
// any "1.x" minor revision; a major bump breaks compatibility on purpose.
const mapFormatVersion = "1.0.0"

// BandwidthMap is the versioned capacity artifact the coordination tier
// publishes — the v3bw idea: a self-describing text file any consumer can
// fetch, diff, and cache. Entries are sorted by (From, To) and unique per
// path; Generation increases with every publication and never goes
// backwards, so a consumer holding generation N can ignore anything
// older.
type BandwidthMap struct {
	// Epoch is the build time, unix seconds (the file's first line).
	Epoch int64
	// Generation is the publisher's monotonic publication counter.
	Generation uint64
	// StoreVersion is the store snapshot version the map was built from.
	StoreVersion uint64
	// Entries holds one record per path — the freshest the store had — so
	// consumers can judge staleness from Record.At themselves.
	Entries []Record
}

// Lookup finds the entry for (from, to) by binary search over the sorted
// entries.
func (m *BandwidthMap) Lookup(from, to string) (Record, bool) {
	if m == nil {
		return Record{}, false
	}
	want := Path{From: from, To: to}
	i := sort.Search(len(m.Entries), func(i int) bool {
		return !m.Entries[i].Path.Less(want)
	})
	if i < len(m.Entries) && m.Entries[i].Path == want {
		return m.Entries[i], true
	}
	return Record{}, false
}

// fnum renders a float losslessly for the wire format.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Serialize writes the v3bw-style text form:
//
//	<epoch-seconds>
//	version=1.0.0
//	generation=<n>
//	store_version=<n>
//	path_count=<n>
//	=====
//	path=<from>><to> bw_mbps=<f> lat_ms=<f> kind=<s> quality=<f> at_ns=<n>
//
// Entries are emitted in sorted path order regardless of in-memory order.
func (m *BandwidthMap) Serialize(w io.Writer) error {
	entries := append([]Record(nil), m.Entries...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path.Less(entries[j].Path) })
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", m.Epoch)
	fmt.Fprintf(bw, "version=%s\n", mapFormatVersion)
	fmt.Fprintf(bw, "generation=%d\n", m.Generation)
	fmt.Fprintf(bw, "store_version=%d\n", m.StoreVersion)
	fmt.Fprintf(bw, "path_count=%d\n", len(entries))
	fmt.Fprintln(bw, "=====")
	for _, e := range entries {
		fmt.Fprintf(bw, "path=%s bw_mbps=%s", e.Path, fnum(e.Mbps))
		if e.LatencyMs != 0 {
			fmt.Fprintf(bw, " lat_ms=%s", fnum(e.LatencyMs))
		}
		if e.Kind != "" {
			fmt.Fprintf(bw, " kind=%s", e.Kind)
		}
		if e.Quality != 0 {
			fmt.Fprintf(bw, " quality=%s", fnum(e.Quality))
		}
		if e.At != 0 {
			fmt.Fprintf(bw, " at_ns=%d", e.At)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Bytes is Serialize into memory.
func (m *BandwidthMap) Bytes() []byte {
	var buf bytes.Buffer
	m.Serialize(&buf) // a bytes.Buffer cannot fail
	return buf.Bytes()
}

// ParseBandwidthMap decodes the text form, rejecting anything a correct
// publisher cannot have produced: missing or incompatible headers, a
// path_count that disagrees with the entry lines, unsorted or duplicate
// paths, malformed numbers, and truncation (no ===== separator). Unknown
// header keys and unknown entry fields are ignored for forward
// compatibility.
func ParseBandwidthMap(data []byte) (*BandwidthMap, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("coord: empty bandwidth map")
	}
	epoch, err := strconv.ParseInt(strings.TrimSpace(sc.Text()), 10, 64)
	if err != nil || epoch < 0 {
		return nil, fmt.Errorf("coord: bad epoch line %q", sc.Text())
	}
	m := &BandwidthMap{Epoch: epoch}
	var (
		sawVersion, sawGeneration, sawSeparator bool
		pathCount                               = -1
	)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "=====" {
			sawSeparator = true
			break
		}
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("coord: bad header line %q", line)
		}
		switch key {
		case "version":
			if !strings.HasPrefix(val, "1.") {
				return nil, fmt.Errorf("coord: unsupported map format version %q", val)
			}
			sawVersion = true
		case "generation":
			g, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("coord: bad generation %q", val)
			}
			m.Generation = g
			sawGeneration = true
		case "store_version":
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("coord: bad store_version %q", val)
			}
			m.StoreVersion = v
		case "path_count":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("coord: bad path_count %q", val)
			}
			pathCount = n
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("coord: read bandwidth map: %w", err)
	}
	if !sawSeparator {
		return nil, fmt.Errorf("coord: truncated bandwidth map: no ===== separator")
	}
	if !sawVersion || !sawGeneration || pathCount < 0 {
		return nil, fmt.Errorf("coord: bandwidth map missing version/generation/path_count headers")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := parseEntry(line)
		if err != nil {
			return nil, err
		}
		if n := len(m.Entries); n > 0 && !m.Entries[n-1].Path.Less(e.Path) {
			return nil, fmt.Errorf("coord: entries unsorted or duplicated at %q", e.Path)
		}
		m.Entries = append(m.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("coord: read bandwidth map: %w", err)
	}
	if len(m.Entries) != pathCount {
		return nil, fmt.Errorf("coord: path_count=%d but %d entries", pathCount, len(m.Entries))
	}
	return m, nil
}

// parseEntry decodes one "path=... k=v ..." line.
func parseEntry(line string) (Record, error) {
	var e Record
	sawPath, sawBW := false, false
	for _, field := range strings.Fields(line) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return e, fmt.Errorf("coord: bad entry field %q", field)
		}
		switch key {
		case "path":
			from, to, ok := strings.Cut(val, ">")
			if !ok || from == "" || to == "" {
				return e, fmt.Errorf("coord: bad path %q", val)
			}
			e.Path = Path{From: from, To: to}
			sawPath = true
		case "bw_mbps":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return e, fmt.Errorf("coord: bad bw_mbps %q", val)
			}
			e.Mbps = f
			sawBW = true
		case "lat_ms":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return e, fmt.Errorf("coord: bad lat_ms %q", val)
			}
			e.LatencyMs = f
		case "kind":
			e.Kind = val
		case "quality":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return e, fmt.Errorf("coord: bad quality %q", val)
			}
			e.Quality = f
		case "at_ns":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return e, fmt.Errorf("coord: bad at_ns %q", val)
			}
			e.At = n
		}
	}
	if !sawPath || !sawBW {
		return e, fmt.Errorf("coord: entry %q missing path or bw_mbps", line)
	}
	return e, nil
}

// BuildMap assembles a bandwidth map from a store snapshot: the store's
// record for each path becomes that path's entry, stamped with the
// snapshot's version. Generation is zero — the Publisher assigns it at
// publish time.
func BuildMap(s Store, now time.Time) (*BandwidthMap, error) {
	snap, err := s.Scan(Query{})
	if err != nil {
		return nil, err
	}
	return &BandwidthMap{Epoch: now.Unix(), StoreVersion: snap.Version, Entries: snap.Records}, nil
}
