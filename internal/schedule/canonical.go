package schedule

import (
	"strconv"
	"unicode/utf8"
)

// minReplicaJSON is the shortest replica the canonical form can hold; the
// input's length over it bounds how many replicas a document can list.
const minReplicaJSON = `{"task":0,"name":"","copy":0,"proc":0,"start":0,"finish":0,"stage":0}`

// decodeCanonical fills in from data and reports true when data is the
// canonical compact form MarshalJSON writes: its key order, no whitespace,
// "in" only when non-empty, integers without fraction or exponent, and
// strings without escapes. It reports false on anything else, possibly
// leaving in partly filled; LoadJSON then decodes a fresh value with
// json.Unmarshal. On every input it accepts, in ends deep-equal to what
// json.Unmarshal decodes (FuzzLoadJSON checks both halves).
func (in *jsonSchedule) decodeCanonical(data []byte) bool {
	d := canonReader{data: data, ok: true}
	d.expect(`{"algorithm":`)
	in.Algorithm = d.str()
	d.expect(`,"eps":`)
	in.Eps = d.int()
	d.expect(`,"period":`)
	in.Period = d.float()
	d.expect(`,"graph":`)
	in.Graph = d.str()
	d.expect(`,"tasks":`)
	in.Tasks = d.int()
	d.expect(`,"procs":`)
	in.Procs = d.int()
	d.expect(`,"stages":`)
	in.Stages = d.int()
	d.expect(`,"latencyBound":`)
	in.Latency = d.float()
	d.expect(`,"replicas":[`)
	if !d.ok {
		return false
	}
	// Size the replicas for the header's v×(ε+1) when the input is long
	// enough to hold that many, never beyond what its length allows.
	n := len(data) / len(minReplicaJSON)
	if in.Tasks > 0 && in.Tasks <= n && in.Eps >= 0 && in.Eps < n {
		n = min(n, in.Tasks*(in.Eps+1))
	}
	in.Replicas = make([]jsonReplica, 0, n)
	// Every replica's inputs are consecutive windows of one array.
	comms := make([]jsonComm, 0, n)
	for d.ok {
		var r jsonReplica
		d.expect(`{"task":`)
		r.Task = d.int()
		d.expect(`,"name":`)
		r.Name = d.str()
		d.expect(`,"copy":`)
		r.Copy = d.int()
		d.expect(`,"proc":`)
		r.Proc = d.int()
		d.expect(`,"start":`)
		r.Start = d.float()
		d.expect(`,"finish":`)
		r.Finish = d.float()
		d.expect(`,"stage":`)
		r.Stage = d.int()
		if d.accept(`,"in":[`) {
			first := len(comms)
			for d.ok {
				var c jsonComm
				d.expect(`{"fromTask":`)
				c.FromTask = d.int()
				d.expect(`,"fromCopy":`)
				c.FromCopy = d.int()
				d.expect(`,"volume":`)
				c.Volume = d.float()
				d.expect(`,"start":`)
				c.Start = d.float()
				d.expect(`,"finish":`)
				c.Finish = d.float()
				d.expect("}")
				comms = append(comms, c)
				if d.accept("]") {
					break
				}
				d.expect(",")
			}
			r.In = comms[first:len(comms):len(comms)]
		}
		d.expect("}")
		in.Replicas = append(in.Replicas, r)
		if d.accept("]") {
			break
		}
		d.expect(",")
	}
	d.expect("}")
	return d.ok && d.pos == len(data)
}

// canonReader walks a canonical document; ok turns false at the first byte
// that departs from the canonical form, and every read after it is a no-op.
type canonReader struct {
	data []byte
	pos  int
	ok   bool
	name string // the last string read, shared by equal successors
}

// accept consumes s if the input continues with it.
func (d *canonReader) accept(s string) bool {
	if d.ok && len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// expect consumes s or fails.
func (d *canonReader) expect(s string) {
	if !d.accept(s) {
		d.ok = false
	}
}

// int reads a canonical integer: an optional minus and 1–18 digits, no
// leading zero and no -0, so it cannot overflow; a fraction or exponent
// fails at the next expect.
func (d *canonReader) int() int {
	if !d.ok {
		return 0
	}
	i := d.pos
	neg := i < len(d.data) && d.data[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(d.data) && i-start < 18 && isDigit(d.data[i]) {
		v = v*10 + int64(d.data[i]-'0')
		i++
		if v == 0 {
			break
		}
	}
	if i == start || neg && v == 0 || int64(int(v)) != v {
		d.ok = false
		return 0
	}
	d.pos = i
	if neg {
		v = -v
	}
	return int(v)
}

// float reads any JSON number and converts it as json.Unmarshal does; a
// literal out of float64's range fails.
func (d *canonReader) float() float64 {
	if !d.ok {
		return 0
	}
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		i = digits(b, i)
	default:
		d.ok = false
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if i+1 == len(b) || !isDigit(b[i+1]) {
			d.ok = false
			return 0
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			d.ok = false
			return 0
		}
		i = digits(b, i)
	}
	f, err := strconv.ParseFloat(string(b[d.pos:i]), 64)
	if err != nil {
		d.ok = false
		return 0
	}
	d.pos = i
	return f
}

// str reads a string without escapes or control bytes whose content is
// valid UTF-8, which json.Unmarshal would return unchanged.
func (d *canonReader) str() string {
	if !d.accept(`"`) {
		d.ok = false
		return ""
	}
	start, ascii := d.pos, true
	for ; d.pos < len(d.data) && d.data[d.pos] != '"'; d.pos++ {
		if c := d.data[d.pos]; c < ' ' || c == '\\' {
			d.ok = false
			return ""
		} else if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	s := d.data[start:d.pos]
	if d.pos == len(d.data) || !ascii && !utf8.Valid(s) {
		d.ok = false
		return ""
	}
	d.pos++
	if string(s) != d.name {
		d.name = string(s)
	}
	return d.name
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index after the run of digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}
