package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sx4bench/internal/ncar"
	"sx4bench/internal/target"
)

// sweepColdLine is a typical sweep line: three members, an allocation,
// workers 1 and a fault seed.
const sweepColdLine = `{"machine":"sx4-32","benchmarks":["XPOSE","RFFT","RADABS"],"cpus":4,"workers":1,"fault_seed":1234567}`

// strictRun decodes data on encoding/json alone, as DecodeRunRequest
// does for any input outside the plain shape.
func strictRun(data []byte) (RunRequest, error) {
	var r RunRequest
	if err := decodeStrict(data, &r); err != nil {
		return RunRequest{}, fmt.Errorf("serve: decoding run request: %w", err)
	}
	if err := r.Validate(); err != nil {
		return RunRequest{}, err
	}
	return r, nil
}

// checkFastPath fails t unless whatever decodePlainRun accepts in data,
// decodeStrict accepts as the same request with the same deadline bits
// (reflect.DeepEqual holds −0 equal to +0, Fingerprint does not), and
// unless DecodeRunRequest answers as encoding/json alone does, error
// text included. It reports whether the plain path took data.
func checkFastPath(t *testing.T, data []byte) bool {
	t.Helper()
	fast, ok := decodePlainRun(data)
	if ok {
		var strict RunRequest
		if err := decodeStrict(data, &strict); err != nil {
			t.Fatalf("%q: plain path accepted what encoding/json rejects: %v", data, err)
		}
		if !reflect.DeepEqual(fast, strict) {
			t.Fatalf("%q: plain path decoded\n%#v\nencoding/json\n%#v", data, fast, strict)
		}
		if a, b := math.Float64bits(fast.DeadlineSeconds), math.Float64bits(strict.DeadlineSeconds); a != b {
			t.Fatalf("%q: deadline bits %#x on the plain path, %#x from encoding/json", data, a, b)
		}
	}
	got, err := DecodeRunRequest(data)
	want, werr := strictRun(data)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: DecodeRunRequest gave (%#v, %v), encoding/json alone (%#v, %v)", data, got, err, want, werr)
	}
	return ok
}

// TestRunRequestFastPathMatchesStrict is the plain path's differential
// pin, over FuzzServeRequest's seeds, the spellings perfbench sends
// and hand rows at the edges of the plain shape. It also pins which
// rows the plain path takes, so a plain path that quietly falls back
// everywhere fails.
func TestRunRequestFastPathMatchesStrict(t *testing.T) {
	type row struct {
		body  string
		plain bool
	}
	rows := []row{{sweepColdLine, true}}
	for _, s := range serveRequestSeeds {
		rows = append(rows, row{s.body, s.plain})
	}

	// perfbench's spellings: machine case and white space, "all" or an
	// omitted or explicit full list, workers 0..2, fault seeds. The
	// " Sx4-32\t" spelling is marshalled with a \t escape, so it falls
	// back.
	var suite []string
	for _, b := range ncar.Suite() {
		suite = append(suite, b.Name)
	}
	for _, machine := range target.All() {
		for _, name := range []string{machine, strings.ToUpper(machine), " " + strings.ToUpper(machine[:1]) + machine[1:] + "\t", "  " + machine} {
			for _, list := range [][]string{{"XPOSE", "RFFT", "RADABS"}, nil, {"all"}, suite} {
				for workers := range 3 {
					for _, seed := range []int64{0, 7} {
						body, err := json.Marshal(RunRequest{Machine: name, Benchmarks: list, CPUs: 4 * int(seed%2), Workers: workers, FaultSeed: seed})
						if err != nil {
							t.Fatal(err)
						}
						rows = append(rows, row{string(body), !strings.Contains(name, "\t")})
					}
				}
			}
		}
	}

	long := `"COPY"` + strings.Repeat(`,"COPY"`, 19)
	rows = append(rows,
		// Spellings encoding/json also accepts, which the plain path
		// leaves to it.
		row{`{"Machine":"ymp"}`, false},
		row{`{"machine":"ymp","machine":"c90"}`, false},
		row{`{"machine":"ymp","cpus":1,"cpus":2}`, false},
		row{`{"machine":"a\tb"}`, false},
		row{`{"machine":"\u0041"}`, false},
		row{`{"machine":"y\/mp"}`, false},
		row{`{"machine":null}`, false},
		row{`{"machine":"ymp","benchmarks":null}`, false},
		row{`{"machine":"ymp","cpus":null}`, false},
		row{`{"machine":"ymp","deadline_seconds":1e2}`, false},
		row{`{"machine":"ymp","cpus":1E2}`, false},
		row{`{"machine":"ymp","deadline_seconds":1.5}`, false},
		row{`{"machine":"ymp","fault_seed":1,"deadline_seconds":-0.0}`, false},
		row{`{"machine":"sx4-32é"}`, false},
		row{"{\"machine\":\"ymp\x7f\"}", false},
		// Inputs encoding/json rejects, which must keep its error text.
		row{"{\"machine\":\"a\tb\"}", false},
		row{`{"machine":"ymp","cpus":01}`, false},
		row{`{"machine":"ymp","cpus":-}`, false},
		row{`{"machine":"ymp","cpus":+4}`, false},
		row{`{"machine":"ymp","cpus":4 5}`, false},
		row{`{"machine":"ymp","fault_seed":9223372036854775808}`, false},
		row{`{"machine":"ymp","fault_seed":-9223372036854775809}`, false},
		row{`{"machine":"ymp","fault_seed":99999999999999999999}`, false},
		row{"\xef\xbb\xbf{\"machine\":\"ymp\"}", false},
		row{`{"machine":"ymp","benchmarks":[["COPY"]]}`, false},
		row{`{"machine":"ymp","benchmarks":["COPY",]}`, false},
		row{`{"machine":"ymp","benchmarks":"COPY"}`, false},
		row{`{"machine":"x",}`, false},
		row{`{"machine":4}`, false},
		row{`{"machine":"ymp","cpus":"4"}`, false},
		row{`{"machine":"ymp","cpus":true}`, false},
		row{`{"machine":"ymp","bogus":1}`, false},
		row{`{"machine":"ymp"`, false},
		row{`{"machine"}`, false},
		row{`{,}`, false},
		row{`[]`, false},
		row{`"ymp"`, false},
		row{`{"machine":"ymp"}}`, false},
		row{`{"machine":"ymp"}x`, false},
		// The plain shape's edges.
		row{`{}`, true},
		row{`{"machine":""}`, true},
		row{`{"machine":"ymp","fault_seed":1,"deadline_seconds":-0}`, true},
		row{`{"machine":"ymp","cpus":-0,"workers":0}`, true},
		row{`{"machine":"ymp","fault_seed":9223372036854775807,"max_attempts":-5}`, true},
		row{`{"machine":"ymp","fault_seed":-9223372036854775808}`, true},
		row{`{"machine":"ymp","fault_seed":1,"deadline_seconds":9223372036854775807}`, true},
		row{`{"machine":"ymp","fault_seed":1,"deadline_seconds":9007199254740993}`, true},
		row{`{"machine":"ymp","deadline_seconds":-5}`, true},
		row{`{"machine":"ymp","benchmarks":[]}`, true},
		row{`{"machine":"ymp","benchmarks":[ ]}`, true},
		row{`{"machine":"ymp","benchmarks":[` + long + `]}`, true},
		row{`{"machine":"ymp","benchmarks":["COPY","COPY"]}`, true},
		row{`{"machine":"ymp"}` + "\r", true},
		row{"\r\n\t {\"machine\" : \"ymp\" ,\n\"benchmarks\":[ \"COPY\" , \"IA\" ] , \"cpus\" : 4 }\n", true},
		row{`{"machine":"~ !#$%&'()*+,-./:;<=>?@[]^_{|}"}`, true},
	)
	var plain int
	for _, r := range rows {
		if got := checkFastPath(t, []byte(r.body)); got != r.plain {
			t.Errorf("%q: plain path taken = %v, want %v", r.body, got, r.plain)
		}
		if r.plain {
			plain++
		}
	}
	t.Logf("%d rows, %d on the plain path", len(rows), plain)
}

// TestRunRequestFieldsArePlain fails when RunRequest gains a JSON field
// the plain path does not read: a request spelling every field, each
// with a plain value of its kind, must take the plain path. A field it
// missed would still decode, on encoding/json, but every request
// naming it would lose the plain path.
func TestRunRequestFieldsArePlain(t *testing.T) {
	plain := map[reflect.Kind]string{
		reflect.String: `"ymp"`, reflect.Int: "1", reflect.Int64: "1", reflect.Float64: "1", reflect.Slice: `["COPY"]`,
	}
	typ := reflect.TypeFor[RunRequest]()
	var fields []string
	for i := range typ.NumField() {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		value := plain[f.Type.Kind()]
		if !f.IsExported() || name == "" || name == "-" || value == "" {
			t.Fatalf("field %s (json %q, %v) has no plain spelling", f.Name, name, f.Type)
		}
		fields = append(fields, fmt.Sprintf("%q:%s", name, value))
	}
	body := "{" + strings.Join(fields, ",") + "}"
	if !checkFastPath(t, []byte(body)) {
		t.Errorf("%s is not on the plain path", body)
	}
}

// FuzzRunRequestFastPath fuzzes the same property as
// TestRunRequestFastPathMatchesStrict: whatever the plain path accepts,
// encoding/json accepts as the same request down to the deadline's
// bits, and DecodeRunRequest answers every input as encoding/json
// alone does. Its seeds are the committed corpus.
func FuzzRunRequestFastPath(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFastPath(t, data)
	})
}

// TestDecodeRunRequestAllocs bounds the plain path's allocations on a
// typical sweep line: the machine name, the three member names and
// the list. encoding/json made 17.
func TestDecodeRunRequestAllocs(t *testing.T) {
	line := []byte(sweepColdLine)
	if _, ok := decodePlainRun(line); !ok {
		t.Fatalf("%s is not on the plain path", line)
	}
	if allocs := testing.AllocsPerRun(100, func() { DecodeRunRequest(line) }); allocs > 5 {
		t.Errorf("decoding %s makes %v allocations, want at most 5", line, allocs)
	}
}

// BenchmarkDecodeRunRequest times a typical sweep line on the plain
// path and through encoding/json alone, and a spelling that falls back
// (the machine name carries a \t escape).
func BenchmarkDecodeRunRequest(b *testing.B) {
	for _, c := range []struct {
		name   string
		line   string
		decode func([]byte) (RunRequest, error)
	}{
		{"plain", sweepColdLine, DecodeRunRequest},
		{"strict", sweepColdLine, strictRun},
		{"fallback", strings.Replace(sweepColdLine, `"sx4-32"`, `" Sx4-32\t"`, 1), DecodeRunRequest},
	} {
		b.Run(c.name, func(b *testing.B) {
			line := []byte(c.line)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.decode(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
