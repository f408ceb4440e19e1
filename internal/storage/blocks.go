package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pado/internal/data"
	"pado/internal/simnet"
)

// The block protocol: every store in the system — a container's local
// store behind its node host, a stable-storage node, a Spark-like
// executor's shuffle store — answers the same two framed operations over
// a simnet stream, and every reader and writer uses FetchBlock and
// StoreBlock over a Transport. What differs between engines is which
// stores exist and who calls them when, not how bytes move.
const (
	opGet  = 'G' // key → respOK payload | respNo
	opPut  = 'P' // key, payload → respOK
	respOK = 'K'
	respNo = 'N'
)

// OpHandler serves one request/response round whose op byte has already
// been read. A non-nil error tears the stream down (codec failure,
// unknown op); application-level refusals answer on the stream and
// return nil, keeping it usable.
type OpHandler func(op byte, e *data.Encoder, d *data.Decoder) error

// Serve accepts streams on l until stop closes (nil = until the node goes
// down) and runs handle for every framed operation on each.
func Serve(l *simnet.Listener, stop <-chan struct{}, handle OpHandler) {
	for {
		conn, err := l.Accept(stop)
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			d := data.NewDecoder(conn)
			e := data.NewEncoder(conn)
			for {
				op, err := d.Byte()
				if err != nil || handle(op, e, d) != nil {
					return
				}
			}
		}()
	}
}

// ServeBlocks serves the block protocol against store. disk, when
// non-nil, charges every stored and served payload to a disk-bandwidth
// limiter (stable storage writes through disk; local stores are memory).
// Ops outside the block protocol go to other; with other nil they close
// the stream.
func ServeBlocks(l *simnet.Listener, store *LocalStore, disk *simnet.Limiter, stop <-chan struct{}, other OpHandler) {
	throttle := func(n int) error {
		if disk == nil {
			return nil
		}
		return disk.Acquire(n, nil)
	}
	Serve(l, stop, func(op byte, e *data.Encoder, d *data.Decoder) error {
		switch op {
		case opPut:
			key, err := d.String()
			if err != nil {
				return err
			}
			payload, err := d.Bytes(0)
			if err != nil {
				return err
			}
			if err := throttle(len(payload)); err != nil {
				return err
			}
			store.Put(key, payload)
			return respond(e, respOK)
		case opGet:
			key, err := d.String()
			if err != nil {
				return err
			}
			payload, ok := store.Get(key)
			if !ok {
				return respond(e, respNo)
			}
			if err := throttle(len(payload)); err != nil {
				return err
			}
			if err := e.Byte(respOK); err != nil {
				return err
			}
			if err := e.Bytes(payload); err != nil {
				return err
			}
			return e.Flush()
		default:
			if other == nil {
				return fmt.Errorf("storage: unknown block op %q", op)
			}
			return other(op, e, d)
		}
	})
}

// respond writes a bare one-byte response.
func respond(e *data.Encoder, resp byte) error {
	if err := e.Byte(resp); err != nil {
		return err
	}
	return e.Flush()
}

// FetchBlock gets block id from owner's store through t. A miss is an
// ErrNotFound; every failure carries the block and owner.
func FetchBlock(t Transport, op, owner, id string) ([]byte, error) {
	var payload []byte
	err := t.Do(op, owner, func(e *data.Encoder, d *data.Decoder) error {
		if err := e.Byte(opGet); err != nil {
			return err
		}
		if err := e.String(id); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
		resp, err := d.Byte()
		if err != nil {
			return err
		}
		if resp != respOK {
			return ErrNotFound{Key: id}
		}
		payload, err = d.Bytes(0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("fetch %q from %s: %w", id, owner, err)
	}
	return payload, nil
}

// StoreBlock puts a block into owner's store through t.
func StoreBlock(t Transport, op, owner, id string, payload []byte) error {
	err := t.Do(op, owner, func(e *data.Encoder, d *data.Decoder) error {
		if err := e.Byte(opPut); err != nil {
			return err
		}
		if err := e.String(id); err != nil {
			return err
		}
		if err := e.Bytes(payload); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
		resp, err := d.Byte()
		if err != nil {
			return err
		}
		if resp != respOK {
			return fmt.Errorf("rejected")
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store %q on %s: %w", id, owner, err)
	}
	return nil
}

// MaxFetchWorkers bounds the concurrency of a single fetch fan-out
// (broadcast partition pulls, shuffle reads, receiver input fetches,
// cross-stage input resolution). Pushes are not bounded here: a task
// pushes to at most the stage's receiver count, which the physical plan
// already keeps small.
const MaxFetchWorkers = 8

// Fanout runs fn(0..n-1) on up to workers concurrent goroutines and
// returns the lowest-index error. Picking the lowest index (rather than
// whichever goroutine lost the race) keeps the reported failure
// deterministic for a fixed set of per-index outcomes, which the chaos
// determinism gate relies on. All indices are attempted even after a
// failure; callers treat the results as all-or-nothing. Worker w starts on
// index w and claims further indices as it finishes, so the first
// min(n, workers) operations are in flight at once — a push reaches every
// receiver concurrently instead of whichever goroutine runs first draining
// the indices one round trip after another.
func Fanout(n, workers int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(i int) {
			defer wg.Done()
			for ; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
