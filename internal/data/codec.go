package data

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Encoder writes primitive values in a compact varint-based wire format.
// It buffers internally; call Flush before handing the underlying writer
// to anyone else.
type Encoder struct {
	w   *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
	// pooled marks a StreamEncoder, whose buffer Release returns.
	pooled bool
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	if bw, ok := w.(*bufio.Writer); ok {
		return &Encoder{w: bw}
	}
	return &Encoder{w: bufio.NewWriterSize(w, streamBuf)}
}

// Reset discards unflushed state and redirects the Encoder to w, reusing
// the internal buffer. It lets pooled Encoders serve many destinations
// without reallocating their 16KiB write buffers.
func (e *Encoder) Reset(w io.Writer) {
	if bw, ok := w.(*bufio.Writer); ok {
		e.w = bw
		return
	}
	if e.w == nil {
		e.w = bufio.NewWriterSize(w, streamBuf)
		return
	}
	e.w.Reset(w)
}

// Flush writes any buffered data to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(v uint64) error {
	n := binary.PutUvarint(e.tmp[:], v)
	_, err := e.w.Write(e.tmp[:n])
	return err
}

// Varint writes a signed varint.
func (e *Encoder) Varint(v int64) error {
	n := binary.PutVarint(e.tmp[:], v)
	_, err := e.w.Write(e.tmp[:n])
	return err
}

// Float64 writes an IEEE-754 double.
func (e *Encoder) Float64(v float64) error {
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(v))
	_, err := e.w.Write(e.tmp[:8])
	return err
}

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) error {
	if err := e.Uvarint(uint64(len(b))); err != nil {
		return err
	}
	_, err := e.w.Write(b)
	return err
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) error {
	if err := e.Uvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := e.w.WriteString(s)
	return err
}

// Byte writes a single byte.
func (e *Encoder) Byte(b byte) error { return e.w.WriteByte(b) }

// Float64s writes a length-prefixed slice of doubles.
func (e *Encoder) Float64s(v []float64) error {
	if err := e.Uvarint(uint64(len(v))); err != nil {
		return err
	}
	for _, f := range v {
		if err := e.Float64(f); err != nil {
			return err
		}
	}
	return nil
}

// byteReader is what a Decoder needs from its source. *bytes.Reader and
// *bufio.Reader both satisfy it, so in-memory decodes (the common case:
// DecodeAll over an already-received payload) skip the extra bufio layer
// and its 16KiB buffer allocation entirely.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// Decoder reads values produced by Encoder.
type Decoder struct {
	r   byteReader
	tmp [8]byte
	// pooled marks a StreamDecoder, whose buffer Release returns.
	pooled bool
}

// NewDecoder returns a Decoder reading from r. Sources that already
// support byte-at-a-time reads (*bytes.Reader, *bufio.Reader) are used
// directly; anything else — e.g. a network conn — is wrapped in a
// bufio.Reader.
func NewDecoder(r io.Reader) *Decoder {
	if br, ok := r.(byteReader); ok {
		return &Decoder{r: br}
	}
	return &Decoder{r: bufio.NewReaderSize(r, streamBuf)}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }

// Varint reads a signed varint.
func (d *Decoder) Varint() (int64, error) { return binary.ReadVarint(d.r) }

// Float64 reads a double.
func (d *Decoder) Float64() (float64, error) {
	if _, err := io.ReadFull(d.r, d.tmp[:8]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.tmp[:8])), nil
}

// Byte reads a single byte.
func (d *Decoder) Byte() (byte, error) { return d.r.ReadByte() }

// A decoder reserves memory for what has arrived, not for what a prefix
// claims, so a few corrupt or hostile bytes cannot make it allocate.
const (
	// bytesChunk is how much Bytes allocates on the strength of a length
	// prefix alone.
	bytesChunk = 1 << 20
	// MaxPrealloc caps the capacity a decoder of some framed list reserves
	// on the strength of its count alone; past it the slice grows by append
	// as elements arrive.
	MaxPrealloc = 256
)

// Bytes reads a length-prefixed byte slice. maxLen guards against corrupt
// streams; pass 0 for the 1GiB default. A slice longer than bytesChunk
// grows only as its bytes arrive, doubling, so a corrupt or hostile prefix
// cannot claim more memory than the stream then delivers.
func (d *Decoder) Bytes(maxLen int) ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	limit := uint64(maxLen)
	if limit == 0 {
		limit = 1 << 30
	}
	if n > limit {
		return nil, fmt.Errorf("data: length %d exceeds limit %d", n, limit)
	}
	b := make([]byte, min(n, bytesChunk))
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, err
	}
	for have := len(b); uint64(have) < n; have = len(b) {
		more := int(min(n-uint64(have), uint64(have)))
		b = slices.Grow(b, more)[:have+more]
		if _, err := io.ReadFull(d.r, b[have:]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() (string, error) {
	b, err := d.Bytes(0)
	return string(b), err
}

// Float64s reads a length-prefixed slice of doubles.
func (d *Decoder) Float64s() ([]float64, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<27 {
		return nil, fmt.Errorf("data: float64 slice length %d too large", n)
	}
	v := make([]float64, n)
	for i := range v {
		if v[i], err = d.Float64(); err != nil {
			return nil, err
		}
	}
	return v, nil
}
