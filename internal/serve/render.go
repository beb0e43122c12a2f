package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"sx4bench/internal/benchjson"
)

// renderRunResponse renders resp as its wire body: exactly the bytes
// json.Marshal writes for it, then a newline. The fields are appended
// by hand in struct order rather than found by reflection, which on a
// sweep line cost more than the simulation behind it.
// TestRunResponseRenderMatchesMarshal and FuzzRunResponseRender pin the
// bytes to json.Marshal's, and TestRunResponseFieldsAreRendered fails
// when RunResponse or benchjson.Result gains a field written nowhere
// here.
//
// The body is rendered into a stack buffer (a full-suite response is
// 1.4–2.1 KB) and copied once into a slice whose capacity is its
// length: the response cache charges len(body) against its budget, so
// slack capacity would be heap the budget never sees.
func renderRunResponse(resp *RunResponse) ([]byte, error) {
	var stack [4096]byte
	b := append(stack[:0], `{"machine":`...)
	b = appendString(b, resp.Machine)
	b = append(b, `,"cpus":`...)
	b = strconv.AppendInt(b, int64(resp.CPUs), 10)
	if resp.FaultSeed != 0 {
		b = append(b, `,"fault_seed":`...)
		b = strconv.AppendInt(b, resp.FaultSeed, 10)
	}
	b = append(b, `,"results":`...)
	if resp.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Results {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendResult(b, &resp.Results[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, "}\n"...)
	body := make([]byte, len(b))
	copy(body, b)
	return body, nil
}

func appendResult(b []byte, r *benchjson.Result) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = appendString(b, r.Name)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, r.Iterations, 10)
	b = append(b, `,"ns_per_op":`...)
	b, err := appendFloat(b, r.NsPerOp)
	if err != nil {
		return nil, err
	}
	if r.BytesPerOp != nil {
		b = append(b, `,"bytes_per_op":`...)
		b = strconv.AppendInt(b, *r.BytesPerOp, 10)
	}
	if r.AllocsPerOp != nil {
		b = append(b, `,"allocs_per_op":`...)
		b = strconv.AppendInt(b, *r.AllocsPerOp, 10)
	}
	if len(r.Metrics) == 0 {
		return append(b, '}'), nil
	}
	// A member reports one to three metrics, so the keys sort on the
	// stack.
	var stack [8]string
	keys := stack[:0]
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, `,"metrics":{`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		if b, err = appendFloat(b, r.Metrics[k]); err != nil {
			return nil, err
		}
	}
	return append(b, "}}"...), nil
}

// appendFloat appends f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in exponent form below 1e-6
// and from 1e21 up, with a leading zero trimmed from a negative
// exponent. NaN and ±Inf have no JSON spelling and are errors, as
// they are for json.Marshal.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("serve: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json writes as is is copied; a string with any other byte
// (quote, backslash, control, '<', '>', '&', or non-ASCII, which json
// checks for invalid UTF-8 and U+2028/U+2029) is left to json.Marshal,
// which never fails on a string.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
