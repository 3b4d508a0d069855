package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// codec moves the two pixel-carrying members of the /run wire format,
// RunRequest.Inputs and OutputResult.Data, between JSON text and
// []float32 without encoding/json's reflection: the arrays are cut out of
// the body, each number goes through the strconv call encoding/json itself
// makes (so values, range errors and printed bytes are the same by
// construction), and an array is spread over several goroutines. Everything
// else in a request or response still goes through encoding/json.
type codec struct {
	// workers is the number of goroutines one array is spread over.
	workers int
	// minSpan is the least array text, in bytes, worth another goroutine
	// when decoding.
	minSpan int
	// chunk is the number of elements formatted into one buffer when
	// encoding; a worker holds two such buffers.
	chunk int
}

func defaultCodec() codec {
	return codec{workers: runtime.GOMAXPROCS(0), minSpan: 64 << 10, chunk: 8 << 10}
}

// maxDepth is encoding/json's nesting limit; deeper bodies are rejected
// here as they are there.
const maxDepth = 10000

// cursor walks a JSON text just far enough to find where keys and values
// begin and end. It matches brackets and strings and checks nothing else:
// whatever it steps over is validated by whoever decodes those bytes.
type cursor struct {
	b []byte
	i int
}

func (c *cursor) bad() error {
	if c.i >= len(c.b) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d", c.b[c.i], c.i)
}

func isSpace(ch byte) bool { return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n' }

// isDelim reports whether ch ends a number or a literal.
func isDelim(ch byte) bool {
	switch ch {
	case '"', ',', ':', '[', ']', '{', '}':
		return true
	}
	return isSpace(ch)
}

func (c *cursor) space() {
	for c.i < len(c.b) && isSpace(c.b[c.i]) {
		c.i++
	}
}

// eat consumes the next non-space byte if it is ch.
func (c *cursor) eat(ch byte) bool {
	c.space()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// eatNull consumes the literal null if the cursor is on it.
func (c *cursor) eatNull() bool {
	if bytes.HasPrefix(c.b[c.i:], []byte("null")) {
		c.i += 4
		return true
	}
	return false
}

// str consumes the string token at the cursor and returns it with its
// quotes, escapes unresolved.
func (c *cursor) str() ([]byte, bool) {
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return nil, false
	}
	for j := c.i + 1; j < len(c.b); j++ {
		switch c.b[j] {
		case '\\':
			j++
		case '"':
			tok := c.b[c.i : j+1]
			c.i = j + 1
			return tok, true
		}
	}
	c.i = len(c.b)
	return nil, false
}

// skip consumes one value of any kind.
func (c *cursor) skip() bool {
	var open []byte // the closers owed, innermost last
	for c.i < len(c.b) {
		switch ch := c.b[c.i]; ch {
		case '"':
			if _, ok := c.str(); !ok {
				return false
			}
		case '{', '[':
			if len(open) == maxDepth {
				return false
			}
			open = append(open, ch+2) // '{'+2 == '}', '['+2 == ']'
			c.i++
		case '}', ']':
			if len(open) == 0 || open[len(open)-1] != ch {
				return false
			}
			open = open[:len(open)-1]
			c.i++
		case ',', ':':
			if len(open) == 0 {
				return false
			}
			c.i++
		default:
			if isSpace(ch) {
				c.space()
				continue
			}
			// A number or a literal: runs to the next delimiter.
			for c.i < len(c.b) && !isDelim(c.b[c.i]) {
				c.i++
			}
		}
		if len(open) == 0 {
			return true
		}
	}
	return false
}

// members walks the object at the cursor. f gets each member's key,
// unquoted, with the cursor on the first byte of the member's value, and
// must consume that value.
func (c *cursor) members(f func(key string) error) error {
	if !c.eat('{') {
		return c.bad()
	}
	if c.eat('}') {
		return nil
	}
	for {
		c.space()
		tok, ok := c.str()
		if !ok {
			return c.bad()
		}
		// encoding/json resolves escapes and invalid UTF-8 in the key; a
		// token it rejects is a body it rejects.
		var key string
		if err := json.Unmarshal(tok, &key); err != nil {
			return fmt.Errorf("invalid object key %.40s", tok)
		}
		if !c.eat(':') {
			return c.bad()
		}
		c.space()
		if err := f(key); err != nil {
			return err
		}
		if c.eat(',') {
			continue
		}
		if c.eat('}') {
			return nil
		}
		return c.bad()
	}
}

// decodeRequest decodes a /run body as json.Decoder with
// DisallowUnknownFields decodes a RunRequest (first value of the text,
// case-folded field names, later duplicates winning, "inputs" objects
// merging), except that the "inputs" values never reach it: they are cut
// out of the top-level object, parsed by parseInputs, and the envelope is
// decoded with null in their place. The one input encoding/json accepts
// and this does not is a null element inside an input array.
func (cd codec) decodeRequest(body []byte) (*RunRequest, error) {
	c := cursor{b: body}
	c.space()
	envelope := body
	var inputs map[string][]float32
	if c.i < len(body) && body[c.i] == '{' {
		var cut []byte
		last := 0
		err := c.members(func(key string) error {
			if !strings.EqualFold(key, "inputs") {
				if !c.skip() {
					return c.bad()
				}
				return nil
			}
			start := c.i
			if c.eatNull() {
				inputs = nil
			} else {
				if inputs == nil {
					inputs = map[string][]float32{}
				}
				if err := cd.parseInputs(&c, inputs); err != nil {
					return err
				}
			}
			cut = append(append(cut, body[last:start]...), "null"...)
			last = c.i
			return nil
		})
		if err != nil {
			return nil, err
		}
		// What follows the first value is not looked at, as json.Decoder
		// does not look at it.
		envelope = body[:c.i]
		if cut != nil {
			envelope = append(cut, body[last:c.i]...)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(envelope))
	dec.DisallowUnknownFields()
	req := new(RunRequest)
	if err := dec.Decode(req); err != nil {
		return nil, err
	}
	req.Inputs = inputs
	return req, nil
}

// parseInputs consumes one "inputs" object, {"image": [numbers] | null, ...},
// adding its entries to into.
func (cd codec) parseInputs(c *cursor, into map[string][]float32) error {
	return c.members(func(name string) error {
		if c.eatNull() {
			into[name] = nil
			return nil
		}
		if c.i >= len(c.b) || c.b[c.i] != '[' {
			return fmt.Errorf("input %q: want an array of numbers at offset %d", name, c.i)
		}
		// No number holds a ']', so the array ends at the first one; if that
		// one sits in a string or closes a nested array, the text before it
		// fails as numbers.
		n := bytes.IndexByte(c.b[c.i:], ']')
		if n < 0 {
			c.i = len(c.b)
			return c.bad()
		}
		span := c.b[c.i+1 : c.i+n]
		c.i += n + 1
		data, at, err := parseFloats(span, min(cd.workers, 1+len(span)/cd.minSpan))
		if err != nil {
			return fmt.Errorf("input %q[%d]: %v", name, at, err)
		}
		into[name] = data
		return nil
	})
}

// parseFloats parses the text between the brackets of a JSON array of
// numbers, split at comma boundaries into at most pieces parts parsed
// concurrently. On failure it reports the index of the first bad element.
func parseFloats(span []byte, pieces int) ([]float32, int, error) {
	if len(bytes.TrimLeft(span, " \t\r\n")) == 0 {
		return []float32{}, 0, nil
	}
	// starts[p] is where part p begins, just after a comma; first[p] is the
	// index of its first element.
	starts, first := []int{0}, []int{0}
	for p := 1; p < pieces; p++ {
		at := max(p*len(span)/pieces, starts[len(starts)-1])
		n := bytes.IndexByte(span[at:], ',')
		if n < 0 {
			break
		}
		prev := starts[len(starts)-1]
		starts = append(starts, at+n+1)
		first = append(first, first[len(first)-1]+bytes.Count(span[prev:at+n+1], []byte(",")))
	}
	last := starts[len(starts)-1]
	out := make([]float32, first[len(first)-1]+bytes.Count(span[last:], []byte(","))+1)

	part := func(p int) (int, error) {
		lo, hi, end := first[p], len(out), len(span)
		if p+1 < len(starts) {
			hi, end = first[p+1], starts[p+1]-1
		}
		n, err := parsePart(span[starts[p]:end], out[lo:hi])
		return lo + n, err
	}
	ats, errs := make([]int, len(starts)), make([]error, len(starts))
	var wg sync.WaitGroup
	for p := 1; p < len(starts); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			ats[p], errs[p] = part(p)
		}(p)
	}
	ats[0], errs[0] = part(0)
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, ats[p], err
		}
	}
	return out, 0, nil
}

// parsePart parses len(out) comma-separated numbers. It returns how many
// it stored before the element that failed.
func parsePart(text []byte, out []float32) (int, error) {
	i := 0
	for k := range out {
		for i < len(text) && isSpace(text[i]) {
			i++
		}
		end := numberEnd(text, i)
		if end < 0 {
			switch {
			case bytes.HasPrefix(text[i:], []byte("null")):
				return k, fmt.Errorf("null is not a number")
			case i == len(text) || text[i] == ',':
				return k, fmt.Errorf("missing value")
			}
			return k, fmt.Errorf("invalid number %.20q", text[i:])
		}
		// The call encoding/json makes for a float32 field: same bits, same
		// range error.
		v, err := strconv.ParseFloat(string(text[i:end]), 32)
		if err != nil {
			return k, fmt.Errorf("number %.40s does not fit a float32", text[i:end])
		}
		out[k] = float32(v)
		i = end
		for i < len(text) && isSpace(text[i]) {
			i++
		}
		if k+1 < len(out) {
			if i == len(text) || text[i] != ',' {
				return k, fmt.Errorf("invalid text %.20q after number", text[i:])
			}
			i++
		}
	}
	if i != len(text) {
		return len(out) - 1, fmt.Errorf("invalid text %.20q after number", text[i:])
	}
	return len(out), nil
}

// numberEnd returns the end of the JSON number starting at text[i], or -1.
// strconv.ParseFloat alone accepts more than JSON does (hex, infinities,
// underscores), so the grammar is checked first.
func numberEnd(text []byte, i int) int {
	digits := func() bool {
		j := i
		for i < len(text) && '0' <= text[i] && text[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(text) && text[i] == '-' {
		i++
	}
	if i < len(text) && text[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(text) && text[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(text) && (text[i] == 'e' || text[i] == 'E') {
		i++
		if i < len(text) && (text[i] == '+' || text[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// appendFloat appends v as encoding/json prints a float32.
func appendFloat(b []byte, v float32) []byte {
	f := float64(v)
	format := byte('f')
	if abs := float32(math.Abs(f)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 32)
	if format == 'e' {
		// e-09 to e-9, as encoding/json cleans it up.
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func appendFloats(b []byte, data []float32) []byte {
	for i, v := range data {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return b
}

// writeFloats writes data's elements, comma-separated and finite, as
// encoding/json prints a []float32 between its brackets. Chunks of
// cd.chunk elements are formatted by up to cd.workers goroutines and
// written in order, so the text in memory at any time is two chunks per
// worker rather than the whole array.
func (cd codec) writeFloats(w io.Writer, data []float32) error {
	chunks := (len(data) + cd.chunk - 1) / cd.chunk
	workers := min(cd.workers, chunks)
	if workers <= 1 {
		var buf []byte
		for lo := 0; lo < len(data); lo += cd.chunk {
			buf = appendFloats(buf[:0], data[lo:min(lo+cd.chunk, len(data))])
			if lo+cd.chunk < len(data) {
				buf = append(buf, ',')
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
	// Worker k formats chunks k, k+workers, ... and hands each over on its
	// own unbuffered channel; reading the channels round-robin yields the
	// chunks in order. A worker alternates between two buffers: when its
	// second send is received, the write of its first has returned.
	stop := make(chan struct{})
	defer close(stop)
	out := make([]chan []byte, workers)
	for k := range out {
		out[k] = make(chan []byte)
		go func(k int) {
			var bufs [2][]byte
			for c := k; c < chunks; c += workers {
				lo := c * cd.chunk
				b := appendFloats(bufs[c/workers%2][:0], data[lo:min(lo+cd.chunk, len(data))])
				if c+1 < chunks {
					b = append(b, ',')
				}
				bufs[c/workers%2] = b
				select {
				case out[k] <- b:
				case <-stop:
					return
				}
			}
		}(k)
	}
	for c := 0; c < chunks; c++ {
		if _, err := w.Write(<-out[c%workers]); err != nil {
			return err
		}
	}
	return nil
}

// nonFinite returns the 422 for the first NaN or infinity in the outputs'
// data, which JSON cannot carry, or nil.
func nonFinite(outputs map[string]OutputResult) *Error {
	for _, name := range sortedNames(outputs) {
		for i, v := range outputs[name].Data {
			if v-v != 0 {
				return errf(422, "output %q[%d] is %v, which JSON cannot carry; ask for output %q or %q for these inputs", name, i, v, OutputChecksum, OutputNone)
			}
		}
	}
	return nil
}

func sortedNames(outputs map[string]OutputResult) []string {
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// withoutData returns outputs with every Data withheld.
func withoutData(outputs map[string]OutputResult) map[string]OutputResult {
	if outputs == nil {
		return nil
	}
	bare := make(map[string]OutputResult, len(outputs))
	for n, o := range outputs {
		o.Data = nil
		bare[n] = o
	}
	return bare
}

// encodeLine encodes v as every body of this service is encoded: one line,
// HTML characters left alone.
func encodeLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeResult writes what encodeLine gives for a RunResponse or
// FrameResult whose Outputs are outputs, given envelope: the same value
// encoded with withoutData(outputs). "data" is the last member of an
// OutputResult, so each output's array goes in before the brace that closes
// the output's object in the envelope. The data must be finite. It returns
// the bytes written.
func (cd codec) writeResult(w io.Writer, envelope []byte, outputs map[string]OutputResult) (int64, error) {
	cw := &countWriter{w: w}
	c := cursor{b: envelope}
	last := 0
	err := c.members(func(key string) error {
		if key != "outputs" {
			if !c.skip() {
				return c.bad()
			}
			return nil
		}
		return c.members(func(name string) error {
			if !c.skip() {
				return c.bad()
			}
			data := outputs[name].Data
			if len(data) == 0 {
				return nil
			}
			cw.Write(envelope[last : c.i-1])
			last = c.i - 1
			cw.Write([]byte(`,"data":[`))
			if err := cd.writeFloats(cw, data); err != nil {
				return err
			}
			cw.Write([]byte{']'})
			return nil
		})
	})
	if err == nil {
		cw.Write(envelope[last:])
		err = cw.err
	}
	return cw.n, err
}

// countWriter counts the bytes written and keeps the first error, after
// which it writes nothing.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
