package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// The batch codec: POST /transform and POST /predict read and write their
// bytes here. decodeBatch accepts exactly the bodies json.Unmarshal accepts
// into a BatchRequest and yields the same request (FuzzBatchDecode holds it to
// that), but parses the numbers of "rows" straight into one flat block;
// appendBatchResponse renders a BatchResponse byte for byte as json.Encoder
// does. Every other body of the API is a different type and stays on
// encoding/json.

// batchBuf is the memory of one batch request: the body as read, the block
// its rows are parsed into, the row views over the block and the rendered
// reply. It is pooled; nothing that outlives the request may point into it
// (FeatureCache.Put copies the row and the features it keeps).
type batchBuf struct {
	body bytes.Buffer
	vals []float64   // every row's values, row-major
	rows [][]float64 // views into vals
	out  []byte
}

var batchBufs = sync.Pool{New: func() any { return new(batchBuf) }}

// readBody reads r to EOF into buf.body; hint is the declared length, or <= 0.
func (buf *batchBuf) readBody(r io.Reader, hint int64) error {
	buf.body.Reset()
	buf.body.Grow(int(max(hint, 0)) + bytes.MinRead) // ReadFrom wants MinRead spare bytes to see EOF
	_, err := buf.body.ReadFrom(r)
	return err
}

// errTooManyRows is decodeBatch's answer to row maxRows+1.
var errTooManyRows = errors.New("too many rows")

// maxNesting is the depth of arrays and objects encoding/json accepts; the
// request object itself is the first level.
const maxNesting = 10000

// scanner is a cursor over a request body.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal consumes lit if it is next. What may follow a value is checked by
// whoever asked for one.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

func (s *scanner) null() bool { return s.literal("null") }

// next ends an element of an array or a member of an object: a comma (true)
// or the closing bracket (false).
func (s *scanner) next(closing byte) (bool, error) {
	s.ws()
	if s.eat(',') {
		s.ws()
		return true, nil
	}
	if s.eat(closing) {
		return false, nil
	}
	return false, s.errorf("want ',' or %q", closing)
}

// token consumes a string and returns it with its quotes, and whether it is
// plain: printable ASCII without escapes, so that its value is its bytes. A
// token that is not plain is not validated here; unquote does that.
func (s *scanner) token() (tok []byte, plain bool, err error) {
	start := s.i
	if !s.eat('"') {
		return nil, false, s.errorf("want a string")
	}
	plain = true
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start:s.i], plain, nil
		case c == '\\':
			plain = false
			s.i++ // whatever is escaped, it does not end the string
		case c < 0x20 || c >= 0x7f:
			plain = false
		}
		s.i++
	}
	return nil, false, s.errorf("unterminated string")
}

// unquote is the value of a token.
func unquote(tok []byte, plain bool) (string, error) {
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	var v string
	err := json.Unmarshal(tok, &v)
	return v, err
}

// number consumes a JSON number and parses it as encoding/json does.
func (s *scanner) number() (float64, error) {
	b, i := s.b, s.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return 0, s.errorf("want a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return 0, s.errorf("malformed number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return 0, s.errorf("malformed number")
		}
	}
	v, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, s.errorf("number %s does not fit a float64", b[s.i:i])
	}
	s.i = i
	return v, nil
}

// skip consumes the value of a key the request does not have. The scanner
// only finds where the value ends; encoding/json says whether it is one.
func (s *scanner) skip() error {
	start := s.i
	switch {
	case s.i == len(s.b):
		return s.errorf("want a value")
	case s.b[s.i] == '"':
		if _, _, err := s.token(); err != nil {
			return err
		}
	case s.b[s.i] == '{' || s.b[s.i] == '[':
		for depth := 0; ; {
			if s.i == len(s.b) {
				return s.errorf("unexpected end of body")
			}
			switch s.b[s.i] {
			case '"':
				if _, _, err := s.token(); err != nil {
					return err
				}
				continue
			case '{', '[':
				if depth++; depth >= maxNesting {
					return s.errorf("nested deeper than %d", maxNesting)
				}
			case '}', ']':
				depth--
			}
			s.i++
			if depth == 0 {
				break
			}
		}
	default: // a number or a literal runs up to its delimiter
		for s.i < len(s.b) && !strings.ContainsRune(",}] \t\r\n", rune(s.b[s.i])) {
			s.i++
		}
	}
	if !json.Valid(s.b[start:s.i]) {
		return fmt.Errorf("offset %d: invalid value", start)
	}
	return nil
}

// decodeBatch parses a request body. It accepts what json.Unmarshal accepts
// into a BatchRequest — the four keys matched exactly or under case folding,
// any other key skipped with its value, a repeated key decoded again, null
// leaving a string or a bool as it was and emptying rows — except that
// a "rows" array with more than maxRows rows is errTooManyRows at row
// maxRows+1, whatever follows it. req.Rows are views into buf.vals.
func decodeBatch(body []byte, maxRows int, buf *batchBuf) (req BatchRequest, err error) {
	s := scanner{b: body}
	s.ws()
	switch {
	case s.null():
	case s.eat('{'):
		err = s.members(&req, maxRows, buf)
	default:
		err = s.errorf("want an object")
	}
	if err != nil {
		return BatchRequest{}, err
	}
	if s.ws(); s.i < len(body) {
		return BatchRequest{}, s.errorf("unexpected %q after the request", body[s.i])
	}
	return req, nil
}

// members parses the members of the request object, its brace consumed.
func (s *scanner) members(req *BatchRequest, maxRows int, buf *batchBuf) error {
	s.ws()
	if s.eat('}') {
		return nil
	}
	for more := true; more; {
		tok, plain, err := s.token()
		if err != nil {
			return err
		}
		key := batchKey(string(tok[1:len(tok)-1]), false)
		if key == "" {
			// Rare: an escaped, case-folded or unknown key, compared as
			// encoding/json compares it.
			name, err := unquote(tok, plain)
			if err != nil {
				return err
			}
			key = batchKey(name, true)
		}
		s.ws()
		if !s.eat(':') {
			return s.errorf("want ':'")
		}
		s.ws()
		switch key {
		case "pipeline":
			err = s.stringValue(&req.Pipeline)
		case "version":
			err = s.stringValue(&req.Version)
		case "rows":
			req.Rows, err = s.rows(maxRows, buf)
		case "return_features":
			switch {
			case s.null():
			case s.literal("true"):
				req.ReturnFeatures = true
			case s.literal("false"):
				req.ReturnFeatures = false
			default:
				err = s.errorf("want true or false")
			}
		default:
			err = s.skip()
		}
		if err != nil {
			return err
		}
		if more, err = s.next('}'); err != nil {
			return err
		}
	}
	return nil
}

var batchKeys = [...]string{"rows", "pipeline", "version", "return_features"}

// batchKey is the key of the request that name is, as written or (fold)
// under case folding, or "".
func batchKey(name string, fold bool) string {
	for _, k := range batchKeys {
		if name == k || fold && strings.EqualFold(name, k) {
			return k
		}
	}
	return ""
}

// stringValue parses a string, or a null that leaves *v as it is.
func (s *scanner) stringValue(v *string) error {
	if s.null() {
		return nil
	}
	tok, plain, err := s.token()
	if err != nil {
		return err
	}
	*v, err = unquote(tok, plain)
	return err
}

// rows parses the value of "rows" into buf: null, or an array whose elements
// are null (a nil row) or arrays of numbers.
func (s *scanner) rows(maxRows int, buf *batchBuf) ([][]float64, error) {
	if s.null() {
		return nil, nil
	}
	if !s.eat('[') {
		return nil, s.errorf("want an array of rows")
	}
	vals, rows := buf.vals[:0], buf.rows[:0]
	if vals == nil {
		vals, rows = make([]float64, 0, 64), make([][]float64, 0, 8)
	}
	s.ws()
	for more := !s.eat(']'); more; {
		if len(rows) == maxRows {
			return nil, errTooManyRows
		}
		var err error
		switch {
		case s.null():
			rows = append(rows, nil)
		case s.eat('['):
			start := len(vals)
			if vals, err = s.row(vals); err != nil {
				return nil, err
			}
			// vals may still move: the row has its length, not yet its place.
			rows = append(rows, vals[start:])
		default:
			return nil, s.errorf("want a row")
		}
		if more, err = s.next(']'); err != nil {
			return nil, err
		}
	}
	at := 0
	for i, row := range rows {
		if row != nil {
			rows[i] = vals[at : at+len(row) : at+len(row)]
			at += len(row)
		}
	}
	buf.vals, buf.rows = vals, rows
	return rows, nil
}

// row appends the numbers of one row, its bracket consumed, to vals. A null
// number is 0, as encoding/json leaves the element of a new slice.
func (s *scanner) row(vals []float64) ([]float64, error) {
	s.ws()
	for more := !s.eat(']'); more; {
		var v float64
		var err error
		if !s.null() {
			if v, err = s.number(); err != nil {
				return nil, err
			}
		}
		vals = append(vals, v)
		if more, err = s.next(']'); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// appendBatchResponse appends resp and a newline to b, byte for byte what
// json.NewEncoder(w).Encode(resp) writes: the struct's key order and
// omitempty, nil inner slices as null, strings HTML-escaped, floats in
// encoding/json's format. Like the encoder it refuses NaN and ±Inf.
func appendBatchResponse(b []byte, resp *BatchResponse) ([]byte, error) {
	var err error
	b = append(b, `{"pipeline":`...)
	b = appendString(b, resp.Pipeline)
	b = append(b, `,"version":`...)
	b = appendString(b, resp.Version)
	if len(resp.Names) > 0 {
		b = append(b, `,"names":[`...)
		for i, name := range resp.Names {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
		}
		b = append(b, ']')
	}
	if len(resp.Features) > 0 {
		b = append(b, `,"features":`...)
		if b, err = appendMatrix(b, resp.Features); err != nil {
			return b, err
		}
	}
	if len(resp.Scores) > 0 {
		b = append(b, `,"scores":`...)
		if b, err = appendFloats(b, resp.Scores); err != nil {
			return b, err
		}
	}
	if len(resp.Probs) > 0 {
		b = append(b, `,"probs":`...)
		if b, err = appendMatrix(b, resp.Probs); err != nil {
			return b, err
		}
	}
	return append(b, '}', '\n'), nil
}

// appendString appends s as a JSON string. Anything but plain ASCII that
// needs no escape, HTML's included, is left to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func appendMatrix(b []byte, m [][]float64) ([]byte, error) {
	b = append(b, '[')
	for i, row := range m {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloats(b, row); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func appendFloats(b []byte, xs []float64) ([]byte, error) {
	if xs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return b, fmt.Errorf("unsupported value: %v", x)
		}
		// encoding/json's float format: %e below 1e-6 and from 1e21 on, with
		// the exponent's leading zero dropped (e-07 is written e-7).
		format := byte('f')
		if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, x, format, -1, 64)
		if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, ']'), nil
}
