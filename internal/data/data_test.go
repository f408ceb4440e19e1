package data

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, c Coder, recs []Record) []Record {
	t.Helper()
	payload, err := EncodeAll(c, recs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeAll(c, payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestKVStringInt64RoundTrip(t *testing.T) {
	c := KVCoder{K: StringCoder, V: Int64Coder}
	in := []Record{KV("a", int64(1)), KV("", int64(-5)), KV("日本語", int64(1<<60))}
	out := roundTrip(t, c, in)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("got %v, want %v", out, in)
	}
}

func TestEmptyRecordSet(t *testing.T) {
	c := KVCoder{K: StringCoder, V: Int64Coder}
	out := roundTrip(t, c, nil)
	if len(out) != 0 {
		t.Errorf("expected empty, got %v", out)
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	c := KVCoder{K: NilCoder, V: Float64sCoder}
	in := []Record{
		{Value: []float64{}},
		{Value: []float64{1.5, -2.25, math.MaxFloat64, math.SmallestNonzeroFloat64}},
	}
	out := roundTrip(t, c, in)
	for i := range in {
		got := out[i].Value.([]float64)
		want := in[i].Value.([]float64)
		if len(got) != len(want) {
			t.Fatalf("record %d: len %d != %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("record %d[%d]: %v != %v", i, j, got[j], want[j])
			}
		}
	}
}

// Property: any (string,int64) record set round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	c := KVCoder{K: StringCoder, V: Int64Coder}
	err := quick.Check(func(keys []string, vals []int64) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		in := make([]Record, n)
		for i := 0; i < n; i++ {
			in[i] = KV(keys[i], vals[i])
		}
		payload, err := EncodeAll(c, in)
		if err != nil {
			return false
		}
		out, err := DecodeAll(c, payload)
		if err != nil || len(out) != n {
			return false
		}
		for i := range out {
			if out[i].Key != in[i].Key || out[i].Value != in[i].Value {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// Property: bytes values round-trip through the primitive codec.
func TestCodecPrimitivesProperty(t *testing.T) {
	err := quick.Check(func(u uint64, v int64, f float64, b []byte, s string) bool {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if e.Uvarint(u) != nil || e.Varint(v) != nil || e.Float64(f) != nil ||
			e.Bytes(b) != nil || e.String(s) != nil || e.Flush() != nil {
			return false
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		gu, err := d.Uvarint()
		if err != nil || gu != u {
			return false
		}
		gv, err := d.Varint()
		if err != nil || gv != v {
			return false
		}
		gf, err := d.Float64()
		if err != nil || (gf != f && !(math.IsNaN(gf) && math.IsNaN(f))) {
			return false
		}
		gb, err := d.Bytes(0)
		if err != nil || !bytes.Equal(gb, b) {
			return false
		}
		gs, err := d.String()
		return err == nil && gs == s
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestCoderTypeErrors(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := StringCoder.EncodeValue(e, 42); err == nil {
		t.Error("string coder should reject int")
	}
	if err := Int64Coder.EncodeValue(e, "x"); err == nil {
		t.Error("int64 coder should reject string")
	}
	if err := Float64sCoder.EncodeValue(e, 1.0); err == nil {
		t.Error("[]float64 coder should reject float64")
	}
	if err := BytesCoder.EncodeValue(e, "s"); err == nil {
		t.Error("bytes coder should reject string")
	}
}

func TestInt64CoderAcceptsInt(t *testing.T) {
	c := KVCoder{K: NilCoder, V: Int64Coder}
	out := roundTrip(t, c, []Record{{Value: 42}})
	if out[0].Value.(int64) != 42 {
		t.Errorf("got %v", out[0].Value)
	}
}

func TestDecodeCorruptLength(t *testing.T) {
	c := KVCoder{K: StringCoder, V: Int64Coder}
	// A huge record count should be rejected, not allocated.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Uvarint(1 << 40)
	e.Flush()
	if _, err := DecodeAll(c, buf.Bytes()); err == nil {
		t.Error("expected error decoding truncated payload")
	}
}

func TestDecoderBytesLimit(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Uvarint(1 << 20)
	e.Flush()
	d := NewDecoder(bytes.NewReader(buf.Bytes()))
	if _, err := d.Bytes(1024); err == nil {
		t.Error("expected limit error")
	}
}

// TestDecoderBytesGrowsPastChunk: a slice longer than bytesChunk is read
// in growing steps and comes back whole; one cut short anywhere past the
// first step is an error, not a short slice.
func TestDecoderBytesGrowsPastChunk(t *testing.T) {
	payload := make([]byte, 3*bytesChunk+7)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if e.Bytes(payload) != nil || e.Flush() != nil {
		t.Fatal("encode failed")
	}
	got, err := NewDecoder(bytes.NewReader(buf.Bytes())).Bytes(0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("long slice: %d of %d bytes back, err %v", len(got), len(payload), err)
	}
	cut := buf.Bytes()[:2*bytesChunk]
	if got, err := NewDecoder(bytes.NewReader(cut)).Bytes(0); err == nil {
		t.Errorf("truncated long slice decoded to %d bytes without an error", len(got))
	}
}

func TestHashKeyStability(t *testing.T) {
	// Same logical key must hash identically across calls and across
	// int/int64 representations.
	if HashKey("abc") != HashKey("abc") {
		t.Error("string hash unstable")
	}
	if HashKey(int(7)) != HashKey(int64(7)) {
		t.Error("int and int64 hash differently")
	}
	if HashKey(nil) != 0 {
		t.Error("nil key should hash to 0")
	}
}

func TestPartitionRange(t *testing.T) {
	err := quick.Check(func(key string, n uint8) bool {
		parts := int(n%31) + 1
		p := Partition(key, parts)
		return p >= 0 && p < parts
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
	if Partition("x", 0) != 0 || Partition("x", 1) != 0 {
		t.Error("degenerate partition counts should map to 0")
	}
}

func TestPartitionSpread(t *testing.T) {
	// Hash partitioning should spread distinct keys over partitions.
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		counts[Partition(int64(i), 8)]++
	}
	for p, c := range counts {
		if c < 256 {
			t.Errorf("partition %d underloaded: %d", p, c)
		}
	}
}
