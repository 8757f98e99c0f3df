package api

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// The /batch wire shape carries thousands of ops per round trip (the
// client's bounds prefetch sends one bounds op per candidate pair), so
// reflection-driven encoding/json dominates the CPU of a remote build.
// This file encodes and decodes BatchRequest and BatchResponse by hand.
//
// The encoder writes exactly the bytes encoding/json writes for the same
// value: json.Marshal's for a request, json.Encoder.Encode's (trailing
// newline included) for a response. The wire format is therefore
// encoding/json's, unchanged.
//
// The decoder recognises only that canonical form: keys in declaration
// order, no whitespace, no escapes, integer indices. Anything else —
// valid JSON written by another client, or malformed input — is handed to
// encoding/json, so the accept set, the decoded values and the error
// text are encoding/json's in every case. The fast path never reports an
// error of its own; it either decodes or declines.

// appendFloat appends f (finite) formatted as encoding/json formats a
// float64: the shortest representation that round-trips, in 'f' form
// unless |f| < 1e-6 or |f| ≥ 1e21, with a two-digit negative exponent
// trimmed to one digit (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendWireFloat appends f as WireFloat.MarshalJSON encodes it. It
// reports false for NaN, which has no wire form.
func appendWireFloat(b []byte, f float64) ([]byte, bool) {
	switch {
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...), true
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...), true
	case math.IsNaN(f):
		return b, false
	}
	return appendFloat(b, f), true
}

// appendString appends s as a JSON string. Plain printable ASCII needs no
// escaping; anything else (control bytes, quotes, backslashes, the HTML
// characters encoding/json escapes, non-ASCII) is encoded by json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendBatchRequest appends the bytes json.Marshal(req) produces to b.
// A NaN threshold fails with json.Marshal's error.
func AppendBatchRequest(b []byte, req *BatchRequest) ([]byte, error) {
	if req.Ops == nil {
		return append(b, `{"ops":null}`...), nil
	}
	start := len(b)
	b = slices.Grow(b, 32*len(req.Ops)+16) // a bounds op takes about 30 bytes
	b = append(b, `{"ops":[`...)
	for x := range req.Ops {
		op := &req.Ops[x]
		if x > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":`...)
		b = appendString(b, op.Op)
		b = append(b, `,"i":`...)
		b = strconv.AppendInt(b, int64(op.I), 10)
		b = append(b, `,"j":`...)
		b = strconv.AppendInt(b, int64(op.J), 10)
		if op.K != 0 {
			b = append(b, `,"k":`...)
			b = strconv.AppendInt(b, int64(op.K), 10)
		}
		if op.L != 0 {
			b = append(b, `,"l":`...)
			b = strconv.AppendInt(b, int64(op.L), 10)
		}
		if op.C != 0 {
			var ok bool
			b = append(b, `,"c":`...)
			if b, ok = appendWireFloat(b, float64(op.C)); !ok {
				_, err := json.Marshal(req)
				return b[:start], err
			}
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// AppendBatchResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes to b, trailing newline included. A NaN value fails with
// encoding/json's error.
func AppendBatchResponse(b []byte, resp *BatchResponse) ([]byte, error) {
	if resp.Results == nil {
		return append(b, "{\"results\":null}\n"...), nil
	}
	start := len(b)
	b = slices.Grow(b, 48*len(resp.Results)+16) // a bounds result takes about 45 bytes
	b = append(b, `{"results":[`...)
	for x := range resp.Results {
		r := &resp.Results[x]
		if x > 0 {
			b = append(b, ',')
		}
		// Every present field is written with a trailing comma; the last
		// one's comma becomes the closing brace.
		b = append(b, '{')
		if r.Less {
			b = append(b, `"less":true,`...)
		}
		ok := true
		b, ok = appendFloatField(b, `"d":`, r.D, ok)
		b, ok = appendFloatField(b, `"lb":`, r.LB, ok)
		b, ok = appendFloatField(b, `"ub":`, r.UB, ok)
		b, ok = appendFloatField(b, `"eps":`, r.Eps, ok)
		if !ok {
			_, err := json.Marshal(resp)
			return b[:start], err
		}
		if r.Err != "" {
			b = append(b, `"err":`...)
			b = appendString(b, r.Err)
			b = append(b, ',')
		}
		if b[len(b)-1] == ',' {
			b[len(b)-1] = '}'
		} else {
			b = append(b, '}')
		}
	}
	return append(b, "]}\n"...), nil
}

// appendFloatField appends key, v and a comma when v is non-zero (the
// omitempty rule) and ok still holds; it reports false for a NaN v.
func appendFloatField(b []byte, key string, v WireFloat, ok bool) ([]byte, bool) {
	if v == 0 || !ok {
		return b, ok
	}
	b = append(b, key...)
	if b, ok = appendWireFloat(b, float64(v)); !ok {
		return b, false
	}
	return append(b, ','), true
}

// DecodeBatchRequest decodes a request body into req exactly as a
// json.Decoder with DisallowUnknownFields does — same value, same error —
// taking the fast path when data is in canonical form.
func DecodeBatchRequest(data []byte, req *BatchRequest) error {
	if decodeBatchRequest(data, req) {
		return nil
	}
	*req = BatchRequest{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// UnmarshalBatchResponse is json.Unmarshal(data, resp) — same value, same
// error — taking the fast path when data is in canonical form.
func UnmarshalBatchResponse(data []byte, resp *BatchResponse) error {
	if decodeBatchResponse(data, resp) {
		return nil
	}
	*resp = BatchResponse{}
	return json.Unmarshal(data, resp)
}

// cursor walks canonical JSON. Every method reports false on anything it
// does not recognise, and the caller then declines the whole document.
type cursor struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i >= len(s) && string(c.b[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// peek reports whether the next byte is ch, without consuming it.
func (c *cursor) peek(ch byte) bool { return c.i < len(c.b) && c.b[c.i] == ch }

// atEnd reports whether only JSON whitespace remains.
func (c *cursor) atEnd() bool {
	for _, ch := range c.b[c.i:] {
		if ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r' {
			return false
		}
	}
	return true
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (c *cursor) digits() bool {
	start := c.i
	for c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9' {
		c.i++
	}
	return c.i > start
}

// number consumes a JSON number — -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
// and returns its text. With integer set, the fraction and exponent are
// not part of the accepted grammar.
func (c *cursor) number(integer bool) ([]byte, bool) {
	start := c.i
	c.lit("-")
	switch {
	case c.peek('0'):
		c.i++
	case !c.digits():
		return nil, false
	}
	if !integer {
		if c.lit(".") && !c.digits() {
			return nil, false
		}
		if c.peek('e') || c.peek('E') {
			c.i++
			if !c.lit("+") {
				c.lit("-")
			}
			if !c.digits() {
				return nil, false
			}
		}
	}
	return c.b[start:c.i], true
}

// int consumes an integer that fits an int.
func (c *cursor) int() (int, bool) {
	num, ok := c.number(true)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(num), 10, 0)
	return int(v), err == nil
}

// wireFloat consumes a WireFloat: a number in float64 range, or one of
// the "+Inf", "-Inf", "Inf" strings WireFloat.UnmarshalJSON accepts.
func (c *cursor) wireFloat() (WireFloat, bool) {
	switch {
	case c.lit(`"+Inf"`), c.lit(`"Inf"`):
		return WireFloat(math.Inf(1)), true
	case c.lit(`"-Inf"`):
		return WireFloat(math.Inf(-1)), true
	}
	num, ok := c.number(false)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return WireFloat(f), err == nil
}

// str consumes a string of printable ASCII without escapes. Known op
// names and error codes come back as the package constants, so decoding
// them does not allocate.
func (c *cursor) str() (string, bool) {
	if !c.lit(`"`) {
		return "", false
	}
	start := c.i
	for ; c.i < len(c.b); c.i++ {
		switch ch := c.b[c.i]; {
		case ch == '"':
			s := c.b[start:c.i]
			c.i++
			return intern(s), true
		case ch < 0x20 || ch >= 0x7f || ch == '\\':
			return "", false
		}
	}
	return "", false
}

// intern returns s as a string, sharing the constant for the op names
// and error codes that fill the batch wire shape.
func intern(s []byte) string {
	switch string(s) {
	case OpBounds:
		return OpBounds
	case OpDist:
		return OpDist
	case OpLess:
		return OpLess
	case OpLessThan:
		return OpLessThan
	case OpDistIfLess:
		return OpDistIfLess
	case CodeBadRequest:
		return CodeBadRequest
	case CodeOracleUnavailable:
		return CodeOracleUnavailable
	}
	return string(s)
}

// minOpLen is the length of the shortest canonical op,
// {"op":"","i":0,"j":0}; it caps the slice a request body can make the
// decoder allocate up front.
const minOpLen = 21

// decodeBatchRequest decodes a canonical request body:
//
//	{"ops":null}
//	{"ops":[{"op":S,"i":N,"j":N[,"k":N][,"l":N][,"c":F]},...]}
//
// followed by nothing but whitespace. It reports false, leaving req in an
// unspecified state, for anything else.
func decodeBatchRequest(data []byte, req *BatchRequest) bool {
	c := cursor{b: data}
	if c.lit(`{"ops":null}`) {
		*req = BatchRequest{}
		return c.atEnd()
	}
	if !c.lit(`{"ops":[`) {
		return false
	}
	ops := make([]BatchOp, 0, min(bytes.Count(data, []byte("{"))-1, len(data)/minOpLen))
	for !c.lit("]}") {
		if len(ops) > 0 && !c.lit(",") {
			return false
		}
		var op BatchOp
		var ok bool
		if !c.lit(`{"op":`) {
			return false
		}
		if op.Op, ok = c.str(); !ok || !c.lit(`,"i":`) {
			return false
		}
		if op.I, ok = c.int(); !ok || !c.lit(`,"j":`) {
			return false
		}
		if op.J, ok = c.int(); !ok {
			return false
		}
		if c.lit(`,"k":`) {
			if op.K, ok = c.int(); !ok {
				return false
			}
		}
		if c.lit(`,"l":`) {
			if op.L, ok = c.int(); !ok {
				return false
			}
		}
		if c.lit(`,"c":`) {
			if op.C, ok = c.wireFloat(); !ok {
				return false
			}
		}
		if !c.lit("}") {
			return false
		}
		ops = append(ops, op)
	}
	*req = BatchRequest{Ops: ops}
	return c.atEnd()
}

// decodeBatchResponse decodes a canonical response body:
//
//	{"results":null}
//	{"results":[{["less":B][,"d":F][,"lb":F][,"ub":F][,"eps":F][,"err":S]},...]}
//
// followed by nothing but whitespace. It reports false, leaving resp in
// an unspecified state, for anything else.
func decodeBatchResponse(data []byte, resp *BatchResponse) bool {
	c := cursor{b: data}
	if c.lit(`{"results":null}`) {
		*resp = BatchResponse{}
		return c.atEnd()
	}
	if !c.lit(`{"results":[`) {
		return false
	}
	results := make([]BatchResult, 0, bytes.Count(data, []byte("{"))-1)
	for !c.lit("]}") {
		if len(results) > 0 && !c.lit(",") {
			return false
		}
		if !c.lit("{") {
			return false
		}
		var r BatchResult
		// Fields are optional but, when present, in declaration order:
		// each one must come after the field before it.
		for field, closed := 0, c.lit("}"); !closed; closed = c.lit("}") {
			if field > 0 && !c.lit(",") {
				return false
			}
			ok := true
			switch {
			case field < 1 && c.lit(`"less":`):
				field = 1
				if r.Less = c.lit("true"); !r.Less {
					ok = c.lit("false")
				}
			case field < 2 && c.lit(`"d":`):
				field = 2
				r.D, ok = c.wireFloat()
			case field < 3 && c.lit(`"lb":`):
				field = 3
				r.LB, ok = c.wireFloat()
			case field < 4 && c.lit(`"ub":`):
				field = 4
				r.UB, ok = c.wireFloat()
			case field < 5 && c.lit(`"eps":`):
				field = 5
				r.Eps, ok = c.wireFloat()
			case field < 6 && c.lit(`"err":`):
				field = 6
				r.Err, ok = c.str()
			default:
				ok = false
			}
			if !ok {
				return false
			}
		}
		results = append(results, r)
	}
	*resp = BatchResponse{Results: results}
	return c.atEnd()
}
