package api

import (
	"encoding/json"
	"math"
	"testing"

	"metricprox/internal/fcmp"
)

func TestWireFloatRoundTripsExactly(t *testing.T) {
	cases := []float64{
		0, 1, 0.1, 1.0 / 3.0, math.Pi, 5e-324, math.MaxFloat64,
		math.Nextafter(0.7, 1), -0.25,
		math.Inf(1), math.Inf(-1),
	}
	for _, f := range cases {
		b, err := json.Marshal(WireFloat(f))
		if err != nil {
			t.Fatalf("marshal %v: %v", f, err)
		}
		var got WireFloat
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if !fcmp.ExactEq(float64(got), f) && !(math.IsInf(f, 1) && math.IsInf(float64(got), 1)) &&
			!(math.IsInf(f, -1) && math.IsInf(float64(got), -1)) {
			t.Fatalf("round-trip %v → %s → %v: bits changed", f, b, float64(got))
		}
	}
}

func TestWireFloatInsideStruct(t *testing.T) {
	req := DistIfLessRequest{I: 1, J: 2, C: WireFloat(math.Inf(1))}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got DistIfLessRequest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if !math.IsInf(float64(got.C), 1) {
		t.Fatalf("threshold +Inf became %v over the wire (%s)", float64(got.C), b)
	}
}

func TestWireFloatRejectsJunkStrings(t *testing.T) {
	var w WireFloat
	if err := json.Unmarshal([]byte(`"NaN"`), &w); err == nil {
		t.Fatal("accepted NaN, which never legitimately crosses the wire")
	}
	if err := json.Unmarshal([]byte(`"fast"`), &w); err == nil {
		t.Fatal("accepted a junk string")
	}
}

// TestWireFloatBytesMatchFloat64: a finite WireFloat encodes to exactly
// encoding/json's float64 bytes, including at the 'f'/'e' switch points
// (1e-6 and 1e21), the trimmed exponent (1e-7), the extremes and -0.
func TestWireFloatBytesMatchFloat64(t *testing.T) {
	cases := []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7, 1.5e-7,
		1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1e22,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.Copysign(0, -1), 0, 0.1, 123456789.125,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		got, err := json.Marshal(WireFloat(f))
		if err != nil || string(got) != string(want) {
			t.Fatalf("WireFloat(%v) encodes as %s (%v), float64 as %s", f, got, err, want)
		}
		direct, err := WireFloat(f).MarshalJSON()
		if err != nil || string(direct) != string(want) {
			t.Fatalf("WireFloat(%v).MarshalJSON() = %s (%v), want %s", f, direct, err, want)
		}
	}
	_, wantErr := json.Marshal(math.NaN())
	if _, err := WireFloat(math.NaN()).MarshalJSON(); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("NaN marshals with error %v, want encoding/json's %v", err, wantErr)
	}
}

// TestWireFloatAcceptSet: UnmarshalJSON accepts what encoding/json
// accepts for a float64 plus the Inf strings, and nothing else.
func TestWireFloatAcceptSet(t *testing.T) {
	w := WireFloat(7)
	if err := w.UnmarshalJSON([]byte("null")); err != nil || w != 7 {
		t.Fatalf("null: %v, value %v; want a no-op", err, float64(w))
	}
	for _, in := range []string{`"+Inf"`, `"Inf"`} {
		if err := json.Unmarshal([]byte(in), &w); err != nil || !math.IsInf(float64(w), 1) {
			t.Fatalf("%s: %v, value %v", in, err, float64(w))
		}
	}
	if err := json.Unmarshal([]byte(`"\u002dInf"`), &w); err != nil || !math.IsInf(float64(w), -1) {
		t.Fatalf(`escaped "-Inf": %v, value %v`, err, float64(w))
	}
	if err := json.Unmarshal([]byte(`-2.5E-3`), &w); err != nil || w != -2.5e-3 {
		t.Fatalf("-2.5E-3: %v, value %v", err, float64(w))
	}
	for _, in := range []string{`true`, `1e400`, `-1e400`, `"NaN"`, `"inf"`, `"fast"`, `0x10`, `+1`, `.5`, `1.`, `01`, `[]`, `{}`} {
		if err := w.UnmarshalJSON([]byte(in)); err == nil {
			t.Fatalf("accepted %s as %v", in, float64(w))
		}
	}
}
