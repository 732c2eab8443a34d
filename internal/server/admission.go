package server

// Admission control: a bounded pool of concurrent query slots with a
// bounded, deadline-limited wait queue, so the service degrades
// gracefully under load instead of stacking up unbounded goroutines.
// A request that cannot get a slot immediately waits in the queue; if
// the queue is full it is rejected at once (HTTP 429), and if the
// queue deadline passes first it times out (HTTP 503). Cache hits
// bypass admission entirely — they cost no engine work.

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// errQueueFull reports an immediately rejected request: every slot
// busy and the wait queue at capacity.
var errQueueFull = errors.New("server: admission queue full")

// errQueueTimeout reports a request that waited the full queue
// deadline without getting a slot.
var errQueueTimeout = errors.New("server: admission queue timeout")

// admissionStats is the observable state of an admission controller.
type admissionStats struct {
	MaxConcurrent int   `json:"maxConcurrent"`
	QueueDepth    int   `json:"queueDepth"`
	InFlight      int64 `json:"inFlight"`
	Waiting       int64 `json:"waiting"`
	Admitted      int64 `json:"admitted"`
	RejectedFull  int64 `json:"rejectedFull"`
	TimedOut      int64 `json:"timedOut"`
}

// admission is the worker-pool gate. All methods are safe for
// concurrent use.
type admission struct {
	slots        chan struct{}
	queueDepth   int
	queueTimeout time.Duration

	inFlight atomic.Int64
	waiting  atomic.Int64
	admitted atomic.Int64
	full     atomic.Int64
	timedOut atomic.Int64
}

// newAdmission returns a controller with maxConcurrent query slots, a
// wait queue of queueDepth, and a per-request queue deadline.
func newAdmission(maxConcurrent, queueDepth int, queueTimeout time.Duration) *admission {
	if maxConcurrent <= 0 {
		maxConcurrent = 4
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if queueTimeout <= 0 {
		queueTimeout = 2 * time.Second
	}
	return &admission{
		slots:        make(chan struct{}, maxConcurrent),
		queueDepth:   queueDepth,
		queueTimeout: queueTimeout,
	}
}

// Acquire blocks until a slot is free, the queue deadline fires
// (errQueueTimeout), the queue is already full (errQueueFull), or ctx
// is done. On nil return the caller owns a slot and must Release it.
func (a *admission) Acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.inFlight.Add(1)
		return nil
	default:
	}
	// No free slot: join the queue if there is room. The waiting
	// counter is an optimistic reservation — increment first, back out
	// on overflow — so the depth bound holds under concurrency.
	if a.waiting.Add(1) > int64(a.queueDepth) {
		a.waiting.Add(-1)
		a.full.Add(1)
		return errQueueFull
	}
	defer a.waiting.Add(-1)
	timer := time.NewTimer(a.queueTimeout)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted.Add(1)
		a.inFlight.Add(1)
		return nil
	case <-timer.C:
		a.timedOut.Add(1)
		return errQueueTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot acquired with Acquire.
func (a *admission) Release() {
	a.inFlight.Add(-1)
	<-a.slots
}

// Stats returns a snapshot of the admission counters.
func (a *admission) Stats() admissionStats {
	return admissionStats{
		MaxConcurrent: cap(a.slots),
		QueueDepth:    a.queueDepth,
		InFlight:      a.inFlight.Load(),
		Waiting:       a.waiting.Load(),
		Admitted:      a.admitted.Load(),
		RejectedFull:  a.full.Load(),
		TimedOut:      a.timedOut.Load(),
	}
}
