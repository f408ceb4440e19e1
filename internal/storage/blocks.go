package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pado/internal/data"
	"pado/internal/simnet"
)

// The wire envelope: every replying operation on the data plane is one
// round — op byte, request, flush; verdict byte, answer — written once on
// each side, by Call and Answer. What an op sends and what a refusal means
// is the op's own business (DESIGN.md §6 has the table); that a refusal is
// a Reply, which keeps the stream pooled and costs no retry, is decided
// here for all of them.
const (
	respOK = 'K'
	respNo = 'N'
)

// Round is one round of the envelope. Request writes what follows the op
// byte and Answer reads what follows a positive verdict; either may be nil
// when there is nothing there. Refused is what a negative verdict means.
type Round struct {
	Op      byte
	Request func(*data.Encoder) error
	Answer  func(*data.Decoder) error
	Refused error
}

// exchange runs rounds on one stream: every request, one flush, then the
// verdicts in order. A refusal goes to verdicts[i], marked as a Reply, and
// the stream stays aligned for the rounds behind it. The count returned is
// how many rounds were answered when err, a failure of the stream itself,
// cut the exchange short.
func exchange(e *data.Encoder, d *data.Decoder, rounds []Round, verdicts []error) (int, error) {
	for _, r := range rounds {
		if err := e.Byte(r.Op); err != nil {
			return 0, err
		}
		if r.Request != nil {
			if err := r.Request(e); err != nil {
				return 0, err
			}
		}
	}
	if err := e.Flush(); err != nil {
		return 0, err
	}
	for i, r := range rounds {
		verdict, err := d.Byte()
		switch {
		case err != nil:
			return i, err
		case verdict == respNo:
			verdicts[i] = Reply(r.Refused)
		case verdict != respOK:
			return i, fmt.Errorf("storage: op %q answered with verdict byte %q", r.Op, verdict)
		case r.Answer != nil:
			if err := r.Answer(d); err != nil {
				return i, err
			}
		}
	}
	return len(rounds), nil
}

// Call runs one round of op against node `to` through t: writeRequest and
// readAnswer are the round's Request and Answer, and a negative verdict
// returns refused marked as a Reply. name is the label Transport.Do
// accounts the round under.
func Call(t Transport, name, to string, op byte,
	writeRequest func(*data.Encoder) error, readAnswer func(*data.Decoder) error, refused error) error {
	return call(t, name, to, Round{op, writeRequest, readAnswer, refused})
}

func call(t Transport, name, to string, r Round) error {
	return t.Do(name, to, func(e *data.Encoder, d *data.Decoder) error {
		var verdict [1]error
		if _, err := exchange(e, d, []Round{r}, verdict[:]); err != nil {
			return err
		}
		return verdict[0]
	})
}

// MaxRounds caps what a caller should hand to one Calls. The requests of a
// batch are all written before the first answer is read, so they must fit
// what a stream buffers, and one batch should hold its stream no longer
// than a single large block would: 32 rounds of the commit plane's
// kilobyte-sized chunks are some 10 ms of a reserved node's link.
const MaxRounds = 32

// Calls runs rounds against node `to` through t as one batch on one
// stream, so that N small rounds cost one round trip. It returns one error
// per round: nil, the round's refusal marked as a Reply, or — for the rounds
// a dying stream left unanswered — that stream's error. When the transport
// retries, the batch resumes behind the last answered round.
func Calls(t Transport, name, to string, rounds []Round) []error {
	errs := make([]error, len(rounds))
	answered := 0
	err := t.Do(name, to, func(e *data.Encoder, d *data.Decoder) error {
		n, err := exchange(e, d, rounds[answered:], errs[answered:])
		answered += n
		return err
	})
	for i := answered; i < len(errs); i++ {
		errs[i] = err
	}
	return errs
}

// Answer writes the serving side of a round: a positive verdict followed
// by writeBody's output (nil = the verdict is the whole answer), or a
// refusal.
func Answer(e *data.Encoder, ok bool, writeBody func(*data.Encoder) error) error {
	verdict := byte(respOK)
	if !ok {
		verdict, writeBody = respNo, nil
	}
	if err := e.Byte(verdict); err != nil {
		return err
	}
	if writeBody != nil {
		if err := writeBody(e); err != nil {
			return err
		}
	}
	return e.Flush()
}

// OpHandler serves one round whose op byte has already been read. A
// non-nil error tears the stream down (codec failure, unknown op);
// refusals go out through Answer and return nil, keeping it usable.
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

// The block protocol: every store in the system — a container's local
// store behind its node host, a stable-storage node, a Spark-like
// executor's shuffle store, the commit store's chunk space — answers the
// same two operations, and every reader and writer uses FetchBlock and
// StoreBlock over a Transport. What differs between engines is which
// stores exist and who calls them when, not how bytes move.
const (
	opGet = 'G' // key → payload; refused = no such block
	opPut = 'P' // key, payload → (nothing); refused = the store will not take it under that key
)

// BlockStore is what ServeBlocks serves: LocalStore takes every block,
// the commit store's chunk space only a payload under its own hash.
type BlockStore interface {
	Put(key string, b []byte) bool
	Get(key string) ([]byte, bool)
}

// ServeBlocks serves the block protocol against store. disk, when
// non-nil, charges every stored and served payload to a disk-bandwidth
// limiter (stable storage writes through disk; local stores are memory).
// Ops outside the block protocol go to other; with other nil they close
// the stream.
func ServeBlocks(l *simnet.Listener, store BlockStore, disk *simnet.Limiter, stop <-chan struct{}, other OpHandler) {
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
			return Answer(e, store.Put(key, payload), nil)
		case opGet:
			key, err := d.String()
			if err != nil {
				return err
			}
			payload, ok := store.Get(key)
			if ok {
				if err := throttle(len(payload)); err != nil {
					return err
				}
			}
			return Answer(e, ok, func(e *data.Encoder) error { return e.Bytes(payload) })
		default:
			if other == nil {
				return fmt.Errorf("storage: unknown block op %q", op)
			}
			return other(op, e, d)
		}
	})
}

// errRejected is the refusal of ops whose request either lands or does not.
var errRejected = errors.New("rejected")

// getRound is the block get of id, which stores the payload through dst.
func getRound(id string, dst *[]byte) Round {
	return Round{opGet,
		func(e *data.Encoder) error { return e.String(id) },
		func(d *data.Decoder) (err error) { *dst, err = d.Bytes(0); return err },
		ErrNotFound{Key: id}}
}

// FetchBlock gets block id from owner's store through t. A miss is an
// ErrNotFound; every failure carries the block and owner.
func FetchBlock(t Transport, op, owner, id string) ([]byte, error) {
	var payload []byte
	if err := call(t, op, owner, getRound(id, &payload)); err != nil {
		return nil, fmt.Errorf("fetch %q from %s: %w", id, owner, err)
	}
	return payload, nil
}

// StoreBlock puts a block into owner's store through t.
func StoreBlock(t Transport, op, owner, id string, payload []byte) error {
	err := Call(t, op, owner, opPut, func(e *data.Encoder) error {
		if err := e.String(id); err != nil {
			return err
		}
		return e.Bytes(payload)
	}, nil, errRejected)
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
