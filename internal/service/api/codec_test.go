package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randWireFloat draws from the values that stress float formatting and
// the omitempty rule: zeros of both signs, ±Inf, NaN, subnormals, the
// 'f'/'e' switch points and their neighbours, and random magnitudes
// across the whole exponent range.
func randWireFloat(rng *rand.Rand, nan bool) WireFloat {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 12345, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e20, 1e21, math.Nextafter(1e21, 0), 1e22,
		0.1, 1.0 / 3.0, 1, 100, 123456789.125,
	}
	switch r := rng.Intn(10); {
	case r < 3:
		return WireFloat(special[rng.Intn(len(special))])
	case r < 5:
		return WireFloat(rng.Float64())
	case nan && r == 5 && rng.Intn(20) == 0:
		return WireFloat(math.NaN())
	default:
		f := math.Ldexp(rng.Float64()+0.5, rng.Intn(2100)-1075)
		if rng.Intn(2) == 0 {
			f = -f
		}
		return WireFloat(f)
	}
}

func randInt(rng *rand.Rand) int {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return -rng.Intn(1000)
	case 2:
		return rng.Int() - math.MaxInt/2
	default:
		return rng.Intn(5000)
	}
}

func randString(rng *rand.Rand, known []string) string {
	odd := []string{"", "x", `a"b`, `back\slash`, "<tag>&", "tab\there", "ünï", " ", "\xff\xfe", "{[:,]}"}
	if rng.Intn(8) == 0 {
		return odd[rng.Intn(len(odd))]
	}
	return known[rng.Intn(len(known))]
}

func randRequest(rng *rand.Rand, nan bool) BatchRequest {
	var req BatchRequest
	switch rng.Intn(8) {
	case 0:
		return req // nil Ops
	case 1:
		req.Ops = []BatchOp{}
		return req
	}
	kinds := []string{OpDist, OpLess, OpLessThan, OpDistIfLess, OpBounds}
	for n := 1 + rng.Intn(12); len(req.Ops) < n; {
		op := BatchOp{Op: randString(rng, kinds), I: randInt(rng), J: randInt(rng)}
		if rng.Intn(2) == 0 {
			op.K, op.L = randInt(rng), randInt(rng)
		}
		if rng.Intn(2) == 0 {
			op.C = randWireFloat(rng, nan)
		}
		req.Ops = append(req.Ops, op)
	}
	return req
}

func randResponse(rng *rand.Rand, nan bool) BatchResponse {
	var resp BatchResponse
	switch rng.Intn(8) {
	case 0:
		return resp // nil Results
	case 1:
		resp.Results = []BatchResult{}
		return resp
	}
	codes := []string{CodeBadRequest, CodeOracleUnavailable, CodeInternal, CodeNotFound}
	for n := 1 + rng.Intn(12); len(resp.Results) < n; {
		var r BatchResult
		r.Less = rng.Intn(2) == 0
		for _, f := range []*WireFloat{&r.D, &r.LB, &r.UB, &r.Eps} {
			if rng.Intn(3) > 0 {
				*f = randWireFloat(rng, nan)
			}
		}
		if rng.Intn(4) == 0 {
			r.Err = randString(rng, codes)
		}
		resp.Results = append(resp.Results, r)
	}
	return resp
}

// sameFloats reports whether a and b hold bit-identical floats in the
// same places: reflect.DeepEqual alone equates 0 with -0.
func sameFloats(a, b []WireFloat) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if math.Float64bits(float64(a[x])) != math.Float64bits(float64(b[x])) {
			return false
		}
	}
	return true
}

func requestFloats(req BatchRequest) []WireFloat {
	var fs []WireFloat
	for _, op := range req.Ops {
		fs = append(fs, op.C)
	}
	return fs
}

func responseFloats(resp BatchResponse) []WireFloat {
	var fs []WireFloat
	for _, r := range resp.Results {
		fs = append(fs, r.D, r.LB, r.UB, r.Eps)
	}
	return fs
}

func sameRequest(a, b BatchRequest) bool {
	return reflect.DeepEqual(a, b) && sameFloats(requestFloats(a), requestFloats(b))
}

func sameResponse(a, b BatchResponse) bool {
	return reflect.DeepEqual(a, b) && sameFloats(responseFloats(a), responseFloats(b))
}

// plain reports whether s is written without escapes, the only strings
// the fast decoder reads; a document with any other string is declined.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func plainRequest(req BatchRequest) bool {
	for _, op := range req.Ops {
		if !plain(op.Op) {
			return false
		}
	}
	return true
}

func plainResponse(resp BatchResponse) bool {
	for _, r := range resp.Results {
		if !plain(r.Err) {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// referenceRequest decodes a request body as the service did before the
// codec: a json.Decoder with DisallowUnknownFields.
func referenceRequest(data []byte) (BatchRequest, error) {
	var req BatchRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// referenceResponse encodes a response as the service did before the
// codec: json.Encoder.Encode.
func referenceResponse(resp BatchResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// TestBatchCodecMatchesEncodingJSON: on randomized requests and
// responses the codec writes encoding/json's bytes (or its error, for
// NaN), and the fast decoder reads every canonical document whose
// strings need no escapes back to what encoding/json decodes from the
// same bytes (and declines or agrees on the rest).
func TestBatchCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4000; trial++ {
		req := randRequest(rng, true)
		want, wantErr := json.Marshal(req)
		got, err := AppendBatchRequest(nil, &req)
		if errText(err) != errText(wantErr) {
			t.Fatalf("trial %d: request error %q, encoding/json %q", trial, errText(err), errText(wantErr))
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("trial %d: request bytes\n got %s\nwant %s", trial, got, want)
		}
		if err == nil {
			ref, refErr := referenceRequest(want)
			var fast BatchRequest
			accepted := decodeBatchRequest(want, &fast)
			if refErr != nil || plainRequest(req) && !accepted || accepted && !sameRequest(fast, ref) {
				t.Fatalf("trial %d: request %s decoded to %+v (canonical form declined or differs), encoding/json %+v (%v)",
					trial, want, fast, ref, refErr)
			}
		}

		resp := randResponse(rng, true)
		want, wantErr = referenceResponse(resp)
		got, err = AppendBatchResponse(nil, &resp)
		if errText(err) != errText(wantErr) {
			t.Fatalf("trial %d: response error %q, encoding/json %q", trial, errText(err), errText(wantErr))
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("trial %d: response bytes\n got %s\nwant %s", trial, got, want)
		}
		if err == nil {
			var ref, fast BatchResponse
			refErr := json.Unmarshal(want, &ref)
			accepted := decodeBatchResponse(want, &fast)
			if refErr != nil || plainResponse(resp) && !accepted || accepted && !sameResponse(fast, ref) {
				t.Fatalf("trial %d: response %s decoded to %+v (canonical form declined or differs), encoding/json %+v (%v)",
					trial, want, fast, ref, refErr)
			}
		}
	}
}

// TestBatchCodecAppendsToPrefix: the Append functions extend b and, on
// failure, leave it as it was.
func TestBatchCodecAppendsToPrefix(t *testing.T) {
	req := BatchRequest{Ops: []BatchOp{{Op: OpLessThan, I: 1, J: 2, C: 0.5}}}
	got, err := AppendBatchRequest([]byte("x"), &req)
	if err != nil || string(got) != `x{"ops":[{"op":"lessthan","i":1,"j":2,"c":0.5}]}` {
		t.Fatalf("AppendBatchRequest = %s, %v", got, err)
	}
	resp := BatchResponse{Results: []BatchResult{{LB: 1}, {D: WireFloat(math.NaN())}}}
	got, err = AppendBatchResponse([]byte("x"), &resp)
	if err == nil || string(got) != "x" {
		t.Fatalf("AppendBatchResponse with NaN = %q, %v; want the prefix and an error", got, err)
	}
}

// batchDecodeSeeds are canonical bodies plus the non-canonical forms the
// fast decoder must hand to encoding/json.
var batchDecodeSeeds = []string{
	`{"ops":null}`,
	`{"ops":[]}`,
	`{"ops":[{"op":"bounds","i":1,"j":2},{"op":"less","i":1,"j":2,"k":3,"l":4}]}`,
	`{"ops":[{"op":"distifless","i":0,"j":7,"c":"+Inf"},{"op":"lessthan","i":3,"j":9,"c":1e-7}]}` + "\n",
	` {"ops":[{"op":"dist","i":1,"j":2}]}`,
	`{"ops":[{"j":2,"op":"dist","i":1}]}`,
	`{"ops":[{"op":"dist","i":1,"j":2,"x":0}]}`,
	`{"ops":[{"op":"dist","i":1,"j":2}]}`,
	`{"ops":[{"op":"dist","i":1.0,"j":2}]}`,
	`{"ops":[{"op":"dist","i":1,"j":2,"c":1e400}]}`,
	`{"ops":[{"op":"dist","i":1,"j":2,"c":"NaN"}]}`,
	`{"ops":[{"op":"dist","i":1,"j":2,"c":-0}]}`,
	`{"ops":[{"op":"dist","i":01,"j":2}]}`,
	`{"ops":[{"op":"dist","i":1,"j":2}]}garbage`,
	`{"ops":[{"op":"dist","i":1,"j":2}`,
	`{"OPS":null}`,
	`{"results":null}`,
	`{"results":[]}` + "\n",
	`{"results":[{},{"less":true},{"d":0.5},{"lb":1e-7,"ub":"+Inf","eps":0.01},{"err":"bad_request"}]}` + "\n",
	`{"results":[{"less":false,"d":-0}]}`,
	`{"results":[{"ub":1,"lb":0}]}`,
	`{"results":[{"lb":1,"lb":2}]}`,
	`{"results":[{"d":true}]}`,
	`{"results":[{"err":"a\"b"}]}`,
	`{"results":[{"lb":1}]} x`,
}

// FuzzBatchDecode: on arbitrary bytes the fast decoders either decline or
// return exactly what encoding/json returns for the same bytes; the
// public decoders match encoding/json's value and error text always; and
// WireFloat.UnmarshalJSON keeps the accept set of its pre-codec form.
func FuzzBatchDecode(f *testing.F) {
	for _, s := range batchDecodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := referenceRequest(data)
		var fast BatchRequest
		if decodeBatchRequest(data, &fast) && (refErr != nil || !sameRequest(fast, ref)) {
			t.Fatalf("request %q: fast path %+v, encoding/json %+v (%v)", data, fast, ref, refErr)
		}
		var full BatchRequest
		if err := DecodeBatchRequest(data, &full); errText(err) != errText(refErr) || !sameRequest(full, ref) {
			t.Fatalf("request %q: DecodeBatchRequest %+v (%v), encoding/json %+v (%v)", data, full, err, ref, refErr)
		}

		var refResp, fastResp, fullResp BatchResponse
		refErr = json.Unmarshal(data, &refResp)
		if decodeBatchResponse(data, &fastResp) && (refErr != nil || !sameResponse(fastResp, refResp)) {
			t.Fatalf("response %q: fast path %+v, encoding/json %+v (%v)", data, fastResp, refResp, refErr)
		}
		if err := UnmarshalBatchResponse(data, &fullResp); errText(err) != errText(refErr) || !sameResponse(fullResp, refResp) {
			t.Fatalf("response %q: UnmarshalBatchResponse %+v (%v), encoding/json %+v (%v)", data, fullResp, err, refResp, refErr)
		}

		var w, legacy WireFloat
		err, legacyErr := w.UnmarshalJSON(data), legacyUnmarshalWireFloat(&legacy, data)
		if errText(err) != errText(legacyErr) || math.Float64bits(float64(w)) != math.Float64bits(float64(legacy)) {
			t.Fatalf("WireFloat %q: %v (%v), pre-codec form %v (%v)", data, float64(w), err, float64(legacy), legacyErr)
		}
	})
}

// legacyUnmarshalWireFloat is WireFloat.UnmarshalJSON as it was before
// the codec: every value through a nested json.Unmarshal.
func legacyUnmarshalWireFloat(w *WireFloat, b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*w = WireFloat(math.Inf(1))
			return nil
		case "-Inf":
			*w = WireFloat(math.Inf(-1))
			return nil
		}
		return fmt.Errorf("api: invalid float string %q", s)
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*w = WireFloat(f)
	return nil
}

// BenchmarkBatchCodec measures one bounds-prefetch round trip's worth of
// wire work — encode a 2048-op request, decode it, encode the response,
// decode that — through the codec and through encoding/json.
func BenchmarkBatchCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	req := BatchRequest{Ops: make([]BatchOp, 2048)}
	resp := BatchResponse{Results: make([]BatchResult, 2048)}
	for x := range req.Ops {
		req.Ops[x] = BatchOp{Op: OpBounds, I: rng.Intn(200), J: rng.Intn(200)}
		lb := rng.Float64()
		resp.Results[x] = BatchResult{LB: WireFloat(lb), UB: WireFloat(lb + rng.Float64())}
	}
	b.Run("codec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			body, _ := AppendBatchRequest(nil, &req)
			var in BatchRequest
			_ = DecodeBatchRequest(body, &in)
			out, _ := AppendBatchResponse(nil, &resp)
			var back BatchResponse
			_ = UnmarshalBatchResponse(out, &back)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			body, _ := json.Marshal(req)
			in, _ := referenceRequest(body)
			_ = in
			out, _ := referenceResponse(resp)
			var back BatchResponse
			_ = json.Unmarshal(out, &back)
		}
	})
}
