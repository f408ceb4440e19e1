package data

import (
	"bufio"
	"bytes"
	"io"
	"sync"
)

// encodeState pairs a reusable byte buffer with an Encoder permanently
// aimed at it, so a pooled encode reuses both the accumulation buffer
// and the Encoder's internal bufio buffer.
type encodeState struct {
	buf bytes.Buffer
	enc *Encoder
}

var encodePool = sync.Pool{
	New: func() any {
		s := &encodeState{}
		s.enc = NewEncoder(&s.buf)
		return s
	},
}

// Encoded runs fn against a pooled Encoder and returns an exact-size copy
// of everything fn wrote. It replaces the throwaway bytes.Buffer +
// Encoder pair on hot encode paths (EncodeAll, push-frame blocks): the
// growing buffer and the Encoder's 16KiB write buffer are both recycled
// across calls, so steady-state encoding allocates only the result slice.
func Encoded(fn func(e *Encoder) error) ([]byte, error) {
	s := encodePool.Get().(*encodeState)
	defer encodePool.Put(s)
	s.buf.Reset()
	s.enc.Reset(&s.buf)
	if err := fn(s.enc); err != nil {
		return nil, err
	}
	if err := s.enc.Flush(); err != nil {
		return nil, err
	}
	out := make([]byte, s.buf.Len())
	copy(out, s.buf.Bytes())
	return out, nil
}

// streamBuf is the buffer size of every Encoder and Decoder over a stream.
const streamBuf = 16 << 10

// A long-lived stream (a pooled transport stream, a served connection)
// holds a write and a read buffer for as long as it is open. They come
// from these pools and go back when the stream's owner releases them, so
// a node that dials and drops streams recycles the same buffers.
var (
	streamWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, streamBuf) }}
	streamReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, streamBuf) }}
)

// StreamEncoder returns an Encoder writing to w through a pooled buffer.
// Call Release once the stream is closed and no goroutine uses the
// Encoder any more.
func StreamEncoder(w io.Writer) *Encoder {
	bw := streamWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	return &Encoder{w: bw, pooled: true}
}

// Release returns a StreamEncoder's buffer to the pool, discarding
// anything unflushed; the Encoder must not be used again. It does nothing
// for other Encoders, or when called a second time.
func (e *Encoder) Release() {
	if !e.pooled {
		return
	}
	e.pooled = false
	e.w.Reset(nil)
	streamWriters.Put(e.w)
	e.w = nil
}

// StreamDecoder returns a Decoder reading from r through a pooled buffer.
// Call Release once the stream is closed and no goroutine uses the
// Decoder any more.
func StreamDecoder(r io.Reader) *Decoder {
	br := streamReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return &Decoder{r: br, pooled: true}
}

// Release returns a StreamDecoder's buffer to the pool, discarding
// anything unread; the Decoder must not be used again. It does nothing
// for other Decoders, or when called a second time.
func (d *Decoder) Release() {
	if !d.pooled {
		return
	}
	d.pooled = false
	br := d.r.(*bufio.Reader)
	br.Reset(nil)
	streamReaders.Put(br)
	d.r = nil
}
