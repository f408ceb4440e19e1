package simnet

import (
	"io"
	"math/bits"
	"sync"
	"time"
)

// pipe is a unidirectional, latency-aware byte queue. Writers push chunks
// tagged with a delivery time; readers block until a chunk is both present
// and deliverable. Chunks are enqueued in write order and delivery times
// are monotonic per pipe, so stream ordering is preserved.
type pipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []timedChunk
	// cur holds the remainder of a partially consumed chunk, and curBuf
	// the pooled buffer it lies in (nil when it was not pooled).
	cur      []byte
	curBuf   *[]byte
	sendDone bool  // writer half-closed: drained readers see io.EOF
	err      error // terminal error: reads and writes fail immediately
}

type timedChunk struct {
	data []byte
	buf  *[]byte // data's pooled buffer, or nil
	at   time.Time
}

// Written bytes cross a pipe in buffers of their own, and those buffers
// are recycled: a chunk of up to 32 KiB is copied into a pooled buffer of
// the next power-of-two size, 1 KiB at least, which the reader returns
// once it has copied the chunk out. A simulated hop then costs the bytes'
// copy, as a wire does, but no allocation. A larger chunk (a ChunkSize
// above 32 KiB) is allocated plainly.
const (
	minPooledChunk = 1 << 10
	maxPooledChunk = 32 << 10
)

// chunkPools[i] holds buffers of minPooledChunk<<i bytes.
var chunkPools [6]sync.Pool

// poolOf is the pool for buffers of capacity c, or nil.
func poolOf(c int) *sync.Pool {
	if c < minPooledChunk || c > maxPooledChunk {
		return nil
	}
	return &chunkPools[bits.Len(uint(c-1))-bits.Len(minPooledChunk-1)]
}

// newChunk returns n bytes to copy one written chunk into, with the
// pooled buffer they lie in, or nil when they are not pooled.
func newChunk(n int) ([]byte, *[]byte) {
	size := minPooledChunk
	for size < n {
		size <<= 1
	}
	pool := poolOf(size)
	if pool == nil {
		return make([]byte, n), nil
	}
	buf, _ := pool.Get().(*[]byte)
	if buf == nil {
		b := make([]byte, size)
		buf = &b
	}
	return (*buf)[:n], buf
}

// freeChunk returns a pooled chunk buffer.
func freeChunk(buf *[]byte) {
	if buf != nil {
		poolOf(cap(*buf)).Put(buf)
	}
}

func newPipe() *pipe {
	p := &pipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// push queues data, which lies in the pooled buffer buf (nil when it does
// not), for delivery at at. The pipe owns buf from here, also on error.
func (p *pipe) push(data []byte, buf *[]byte, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		freeChunk(buf)
		return p.err
	}
	if p.sendDone {
		freeChunk(buf)
		return ErrConnClosed
	}
	p.chunks = append(p.chunks, timedChunk{data: data, buf: buf, at: at})
	p.cond.Broadcast()
	return nil
}

func (p *pipe) read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	p.mu.Lock()
	for {
		if len(p.cur) > 0 {
			n := copy(b, p.cur)
			p.cur = p.cur[n:]
			if len(p.cur) == 0 {
				freeChunk(p.curBuf)
				p.cur, p.curBuf = nil, nil
			}
			p.mu.Unlock()
			return n, nil
		}
		if len(p.chunks) > 0 {
			ch := p.chunks[0]
			wait := time.Until(ch.at)
			if wait > 0 {
				// Honor the link latency without holding the lock.
				p.mu.Unlock()
				time.Sleep(wait)
				p.mu.Lock()
				continue
			}
			p.chunks[0] = timedChunk{}
			p.chunks = p.chunks[1:]
			p.cur, p.curBuf = ch.data, ch.buf
			continue
		}
		if p.err != nil {
			err := p.err
			p.mu.Unlock()
			return 0, err
		}
		if p.sendDone {
			p.mu.Unlock()
			return 0, io.EOF
		}
		p.cond.Wait()
	}
}

// closeSend half-closes the pipe: no further pushes, readers drain then
// see io.EOF.
func (p *pipe) closeSend() {
	p.mu.Lock()
	p.sendDone = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// broken reports whether the pipe can no longer carry data: it hit a
// terminal error or its writer half-closed.
func (p *pipe) broken() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err != nil || p.sendDone
}

// closeWithError makes subsequent reads fail with err once buffered data
// is drained, and pushes fail immediately. A pipe already terminated keeps
// its first error.
func (p *pipe) closeWithError(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
