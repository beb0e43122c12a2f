package benchjson

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// This file is the wire format's other direction: ParseLine reads
// `go test -bench` text into Result records, EncodeLine and Write
// render records back out as text ParseLine and Parse accept. The
// quickcheck property Parse(Encode(r)) == r (encode_test.go) pins the
// round trip, so the format is tested in both directions — the sx4d
// daemon embeds Result records in its responses and a client must be
// able to re-emit them as benchmark lines without loss.

// reservedUnits are the units ParseLine maps onto dedicated Result
// fields; a metric under one of these names would collide with its
// field on the way back in.
var reservedUnits = map[string]bool{
	"ns/op": true, "B/op": true, "allocs/op": true,
}

// maxExactInt is the largest magnitude a B/op or allocs/op count may
// carry and still round-trip through ParseLine's float64 parse without
// losing integer precision.
const maxExactInt = int64(1) << 53

// EncodeLine renders one Result as a benchmark text line — the exact
// inverse of ParseLine, which must decode it back to a deep-equal
// Result. Results that cannot round-trip are errors rather than silent
// corruption: an empty or whitespace-bearing name, whitespace-bearing
// or reserved metric units, non-finite values, a B/op or allocs/op
// magnitude beyond float64's exact-integer range, a negative iteration
// count, or a record with neither an ns/op value nor metrics (which
// ParseLine rejects as contentless).
func EncodeLine(r Result) (string, error) {
	if r.Name == "" || hasSpace(r.Name) {
		return "", fmt.Errorf("benchjson: unencodable benchmark name %q", r.Name)
	}
	if r.Iterations < 0 {
		return "", fmt.Errorf("benchjson: %s: negative iteration count %d", r.Name, r.Iterations)
	}
	if r.NsPerOp == 0 && len(r.Metrics) == 0 {
		return "", fmt.Errorf("benchjson: %s: no ns/op and no metrics; ParseLine would reject the line", r.Name)
	}
	if r.Metrics != nil && len(r.Metrics) == 0 {
		// ParseLine leaves Metrics nil when no custom units appear; a
		// non-nil empty map would decode to nil and break deep equality.
		return "", fmt.Errorf("benchjson: %s: non-nil empty metrics map cannot round-trip", r.Name)
	}
	if !finite(r.NsPerOp) {
		return "", fmt.Errorf("benchjson: %s: non-finite ns/op", r.Name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d", r.Name, r.Iterations)
	// ns/op is omitted when zero and metrics carry the content, so the
	// decoded NsPerOp field round-trips as the zero it was.
	if r.NsPerOp != 0 {
		b.WriteByte(' ')
		b.WriteString(formatValue(r.NsPerOp))
		b.WriteString(" ns/op")
	}
	if r.BytesPerOp != nil {
		if err := exactInt(r.Name, "B/op", *r.BytesPerOp); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, " %d B/op", *r.BytesPerOp)
	}
	if r.AllocsPerOp != nil {
		if err := exactInt(r.Name, "allocs/op", *r.AllocsPerOp); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, " %d allocs/op", *r.AllocsPerOp)
	}
	units := make([]string, 0, len(r.Metrics))
	for unit := range r.Metrics {
		units = append(units, unit)
	}
	sort.Strings(units)
	for _, unit := range units {
		v := r.Metrics[unit]
		switch {
		case unit == "" || hasSpace(unit):
			return "", fmt.Errorf("benchjson: %s: unencodable metric unit %q", r.Name, unit)
		case reservedUnits[unit]:
			return "", fmt.Errorf("benchjson: %s: metric unit %q collides with a dedicated field", r.Name, unit)
		case !finite(v):
			return "", fmt.Errorf("benchjson: %s: non-finite metric %q", r.Name, unit)
		}
		b.WriteByte(' ')
		b.WriteString(formatValue(v))
		b.WriteByte(' ')
		b.WriteString(unit)
	}
	return b.String(), nil
}

// Write renders a Baseline as `go test -bench` text: the goos/goarch/
// cpu header context, then one line per record. Parse must read the
// output back to an equal Baseline, so every record name must carry
// the "Benchmark" prefix Parse filters on, header values must be
// single-line, and the speedup summary fields must match what Parse
// would rederive from the records themselves (they are derived fields,
// not stored ones).
func Write(w io.Writer, b Baseline) error {
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: baseline has no benchmark records")
	}
	headers := []struct{ key, v string }{
		{"goos", b.GOOS}, {"goarch", b.GOARCH}, {"cpu", b.CPU},
	}
	for _, h := range headers {
		if strings.ContainsAny(h.v, "\n\r") {
			return fmt.Errorf("benchjson: %s header %q is not single-line", h.key, h.v)
		}
	}
	if b.GOOS != "" {
		if _, err := fmt.Fprintf(w, "goos: %s\n", b.GOOS); err != nil {
			return err
		}
	}
	if b.GOARCH != "" {
		if _, err := fmt.Fprintf(w, "goarch: %s\n", b.GOARCH); err != nil {
			return err
		}
	}
	if b.CPU != "" {
		if _, err := fmt.Fprintf(w, "cpu: %s\n", b.CPU); err != nil {
			return err
		}
	}
	var sp speedups
	for _, r := range b.Benchmarks {
		if !strings.HasPrefix(r.Name, "Benchmark") {
			return fmt.Errorf("benchjson: record %q lacks the Benchmark prefix Parse filters on", r.Name)
		}
		line, err := EncodeLine(r)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		sp.observe(r)
	}
	if derived := sp.runAll(); derived != b.RunAllSpeedup {
		return fmt.Errorf("benchjson: runall_parallel_speedup %v disagrees with the records (Parse would rederive %v)",
			b.RunAllSpeedup, derived)
	}
	if derived := sp.capacity(); derived != b.CapacitySpeedup {
		return fmt.Errorf("benchjson: capacity_parallel_speedup %v disagrees with the records (Parse would rederive %v)",
			b.CapacitySpeedup, derived)
	}
	return nil
}

// formatValue renders a float with the shortest representation that
// parses back to the identical bits ('g', precision -1).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// exactInt rejects B/op- and allocs/op-style counts whose magnitude
// would lose integer precision through ParseLine's float64 parse.
func exactInt(name, unit string, v int64) error {
	if v > maxExactInt || v < -maxExactInt {
		return fmt.Errorf("benchjson: %s: %s count %d exceeds float64's exact-integer range", name, unit, v)
	}
	return nil
}

// hasSpace reports whether s contains any whitespace strings.Fields
// would split on.
func hasSpace(s string) bool {
	return strings.IndexFunc(s, unicode.IsSpace) >= 0
}
