package main

import (
	"context"
	"errors"
	"fmt"

	"ridgewalker"
)

// tally counts the outcome of every operation a phase attempted. Nothing
// is retried: each attempt lands in exactly one bucket.
type tally struct {
	Attempted int64
	OK        int64
	Shed      int64 // ErrOverloaded or ErrQuotaExceeded
	Faulted   int64 // ErrEngineFault, ErrEngineStalled or ErrQuarantined
	Expired   int64 // context deadline or cancellation
	Other     int64
}

// note counts one attempt's outcome.
func (t *tally) note(err error) {
	t.Attempted++
	switch {
	case err == nil:
		t.OK++
	case errors.Is(err, ridgewalker.ErrOverloaded), errors.Is(err, ridgewalker.ErrQuotaExceeded):
		t.Shed++
	case errors.Is(err, ridgewalker.ErrEngineFault), errors.Is(err, ridgewalker.ErrEngineStalled),
		errors.Is(err, ridgewalker.ErrQuarantined):
		t.Faulted++
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		t.Expired++
	default:
		t.Other++
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.OK += o.OK
	t.Shed += o.Shed
	t.Faulted += o.Faulted
	t.Expired += o.Expired
	t.Other += o.Other
}

func (t tally) failed() int64 { return t.Attempted - t.OK }

// failFrac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) failFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

func (t tally) String() string {
	return fmt.Sprintf("attempted=%d ok=%d shed=%d faulted=%d expired=%d other=%d",
		t.Attempted, t.OK, t.Shed, t.Faulted, t.Expired, t.Other)
}
