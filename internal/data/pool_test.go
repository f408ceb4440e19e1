package data

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestEncodedMatchesFreshEncoder(t *testing.T) {
	write := func(e *Encoder) error {
		if err := e.Uvarint(300); err != nil {
			return err
		}
		if err := e.String("hello"); err != nil {
			return err
		}
		return e.Bytes([]byte{1, 2, 3})
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := write(e); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Encoded(write)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("Encoded = %x, fresh encoder = %x", got, buf.Bytes())
	}
}

func TestEncodedResultsAreIndependent(t *testing.T) {
	// Sequential calls reuse the pooled buffer; earlier results must not
	// be clobbered by later encodes.
	a, err := Encoded(func(e *Encoder) error { return e.String("first-result") })
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), a...)
	if _, err := Encoded(func(e *Encoder) error { return e.String("second, longer result") }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Error("earlier Encoded result mutated by a later call")
	}
}

func TestEncodedError(t *testing.T) {
	wantErr := fmt.Errorf("user error")
	if _, err := Encoded(func(*Encoder) error { return wantErr }); err != wantErr {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
}

func TestEncodedConcurrent(t *testing.T) {
	c := KVCoder{K: StringCoder, V: Int64Coder}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs := make([]Record, 50)
			for i := range recs {
				recs[i] = KV(fmt.Sprintf("g%d-k%d", g, i), int64(g*1000+i))
			}
			for round := 0; round < 50; round++ {
				payload, err := EncodeAll(c, recs)
				if err != nil {
					errs[g] = err
					return
				}
				out, err := DecodeAll(c, payload)
				if err != nil {
					errs[g] = err
					return
				}
				if len(out) != len(recs) || out[0].Key != recs[0].Key {
					errs[g] = fmt.Errorf("round-trip mismatch on goroutine %d", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestDecodeAllCorruptCountNoHugeAlloc(t *testing.T) {
	// A payload claiming 2^29 records but holding a few bytes must fail
	// with a decode error, not preallocate gigabytes first.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Uvarint(1 << 29); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	c := KVCoder{K: StringCoder, V: Int64Coder}
	if _, err := DecodeAll(c, buf.Bytes()); err == nil {
		t.Error("expected decode error on truncated payload")
	}
}

func TestEncoderReset(t *testing.T) {
	var a, b bytes.Buffer
	e := NewEncoder(&a)
	if err := e.String("to-a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Reset(&b)
	if err := e.String("to-b"); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	da := NewDecoder(bytes.NewReader(a.Bytes()))
	if s, err := da.String(); err != nil || s != "to-a" {
		t.Errorf("a = %q, %v", s, err)
	}
	db := NewDecoder(bytes.NewReader(b.Bytes()))
	if s, err := db.String(); err != nil || s != "to-b" {
		t.Errorf("b = %q, %v", s, err)
	}
}

// TestStreamCodecRecycled: a released stream encoder's unflushed bytes and
// a released decoder's unread bytes never reach the next stream that
// draws the buffers, and releasing twice (or releasing a plain codec) is
// harmless.
func TestStreamCodecRecycled(t *testing.T) {
	var a, b bytes.Buffer
	e := StreamEncoder(&a)
	if err := e.String("never flushed"); err != nil {
		t.Fatal(err)
	}
	e.Release()
	e.Release()
	d := StreamDecoder(io.MultiReader(strings.NewReader("xyz")))
	if _, err := d.Byte(); err != nil {
		t.Fatal(err)
	}
	d.Release()
	d.Release()

	for i := 0; i < 4; i++ {
		e := StreamEncoder(&b)
		if err := e.String(fmt.Sprintf("round-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	if a.Len() != 0 {
		t.Errorf("a released encoder wrote %q", a.Bytes())
	}
	d = StreamDecoder(io.MultiReader(&b))
	for i := 0; i < 4; i++ {
		if s, err := d.String(); err != nil || s != fmt.Sprintf("round-%d", i) {
			t.Fatalf("round %d: %q, %v", i, s, err)
		}
	}
	d.Release()
	NewEncoder(&a).Release()
	NewDecoder(&a).Release()
}

// TestStreamCodecsConcurrent runs streams that draw and release pooled
// buffers from many goroutines at once (run it under -race).
func TestStreamCodecsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				r, w := io.Pipe()
				want := fmt.Sprintf("g%d-r%d", g, round)
				go func() {
					e := StreamEncoder(w)
					err := e.String(want)
					if err == nil {
						err = e.Flush()
					}
					e.Release()
					w.CloseWithError(err)
				}()
				d := StreamDecoder(r)
				got, err := d.String()
				d.Release()
				r.Close()
				if err != nil || got != want {
					errs[g] = fmt.Errorf("got %q, %v; want %q", got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
