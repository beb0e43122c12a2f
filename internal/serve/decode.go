package serve

import "strconv"

// decodePlainRun decodes the run request shape clients send without
// encoding/json's reflection, which cost a sweep line more than
// measuring its answer. The shape is one flat object whose keys are
// RunRequest's exact JSON tags, each at most once, with JSON white
// space (space, tab, CR, LF) around its tokens; strings of printable
// ASCII with no escape; integers with no fraction, exponent, leading
// zero or overflow; and a benchmarks list of such strings.
//
// Any other input, valid JSON or not, returns ok == false, and
// DecodeRunRequest hands it to decodeStrict unchanged. So the
// spellings encoding/json also accepts (a case-variant or repeated
// key, an escape, null, a fraction or an exponent) decode as they
// always did, and every rejection keeps encoding/json's error text.
// TestRunRequestFastPathMatchesStrict and FuzzRunRequestFastPath pin
// that whatever this accepts, decodeStrict accepts as the same
// request, down to the sign bit of a −0 deadline.
func decodePlainRun(data []byte) (RunRequest, bool) {
	var r RunRequest
	p := plainScanner{data: data}
	if !p.next('{') {
		return RunRequest{}, false
	}
	if !p.next('}') {
		var seen uint8 // one bit per key, so a repeated key falls back
		for {
			key, ok := p.quoted()
			if !ok || !p.next(':') {
				return RunRequest{}, false
			}
			var bit uint8
			switch string(key) {
			case "machine":
				bit, ok = 1<<0, p.str(&r.Machine)
			case "benchmarks":
				bit, ok = 1<<1, p.list(&r.Benchmarks)
			case "cpus":
				bit, ok = 1<<2, plainInt(&p, &r.CPUs)
			case "workers":
				bit, ok = 1<<3, plainInt(&p, &r.Workers)
			case "fault_seed":
				bit, ok = 1<<4, plainInt(&p, &r.FaultSeed)
			case "deadline_seconds":
				bit, ok = 1<<5, p.float(&r.DeadlineSeconds)
			case "max_attempts":
				bit, ok = 1<<6, plainInt(&p, &r.MaxAttempts)
			default:
				ok = false
			}
			if !ok || seen&bit != 0 {
				return RunRequest{}, false
			}
			seen |= bit
			if p.next('}') {
				break
			}
			if !p.next(',') {
				return RunRequest{}, false
			}
		}
	}
	if p.ws(); p.i != len(data) {
		return RunRequest{}, false
	}
	return r, true
}

// plainScanner is decodePlainRun's cursor over one request.
type plainScanner struct {
	data []byte
	i    int
}

// ws skips JSON white space.
func (p *plainScanner) ws() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// next skips white space and consumes c if it comes next.
func (p *plainScanner) next(c byte) bool {
	p.ws()
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// quoted consumes a string of printable ASCII with no escape and
// returns its contents, which alias the input.
func (p *plainScanner) quoted() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.data); {
		c := p.data[p.i]
		p.i++
		if c == '"' {
			return p.data[start : p.i-1], true
		}
		if c < ' ' || c > '~' || c == '\\' {
			return nil, false
		}
	}
	return nil, false
}

// str consumes a plain string into dst.
func (p *plainScanner) str(dst *string) bool {
	s, ok := p.quoted()
	if ok {
		*dst = string(s)
	}
	return ok
}

// list consumes an array of plain strings. An empty array is an empty
// list, not a nil one, as encoding/json decodes it.
func (p *plainScanner) list(dst *[]string) bool {
	if !p.next('[') {
		return false
	}
	var stack [16]string
	names := stack[:0]
	if !p.next(']') {
		for {
			s, ok := p.quoted()
			if !ok {
				return false
			}
			names = append(names, string(s))
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return false
			}
		}
	}
	*dst = append(make([]string, 0, len(names)), names...)
	return true
}

// number consumes an integer literal, a minus sign optional: either 0
// or digits without a leading zero, whose value fits in an int64. A
// fraction or exponent after it is left unread, so the caller's next
// token fails to match.
func (p *plainScanner) number() (lit []byte, n int64, ok bool) {
	p.ws()
	start := p.i
	neg := p.i < len(p.data) && p.data[p.i] == '-'
	if neg {
		p.i++
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var u uint64
	digits := p.i
	for p.i < len(p.data) && '0' <= p.data[p.i] && p.data[p.i] <= '9' {
		d := uint64(p.data[p.i] - '0')
		if u > (limit-d)/10 {
			return nil, 0, false
		}
		u = u*10 + d
		p.i++
		if u == 0 {
			break // a leading zero is the whole number
		}
	}
	if p.i == digits {
		return nil, 0, false
	}
	if neg {
		return p.data[start:p.i], -int64(u), true
	}
	return p.data[start:p.i], int64(u), true
}

// plainInt consumes an integer into an int or int64 field, falling
// back where it overflows the field, as encoding/json refuses it.
func plainInt[T int | int64](p *plainScanner, dst *T) bool {
	_, n, ok := p.number()
	if !ok || int64(T(n)) != n {
		return false
	}
	*dst = T(n)
	return true
}

// float consumes an integer into a float64 field by the call
// encoding/json makes, so "-0" keeps its sign bit as it does there.
func (p *plainScanner) float(dst *float64) bool {
	lit, _, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}
