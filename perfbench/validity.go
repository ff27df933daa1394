package main

import (
	"fmt"
	"time"
)

// lateLimit is the generator's own schedule slip (send time past the
// later of the scheduled time and the end of the sender's previous
// request) that a valid run may not exceed at p99. Go timers wake up
// to about 1 ms late, and on a small VM the p99 of an idle sleep is a
// few ms; beyond this limit the generator, not the server, set the
// pace.
const lateLimit = 10 * time.Millisecond

// loadShape is what a run actually used, checked against the limits.
type loadShape struct {
	nproc     int
	senders   int   // push goroutines
	pushConns int64 // connections the push goroutines dialled
	watched   int   // sessions with an open event stream at once
	lateP99   time.Duration
}

// check returns why a run is invalid, or nil. An invalid run is not
// reported.
func (ls loadShape) check() error {
	switch {
	case ls.senders < 1 || ls.senders > ls.nproc:
		return fmt.Errorf("invalid run: %d push goroutines, limit is nproc = %d", ls.senders, ls.nproc)
	case ls.pushConns > int64(ls.nproc):
		return fmt.Errorf("invalid run: push goroutines dialled %d connections, limit is nproc = %d", ls.pushConns, ls.nproc)
	case ls.watched > maxWatched:
		return fmt.Errorf("invalid run: %d watched sessions, limit is %d", ls.watched, maxWatched)
	case ls.lateP99 > lateLimit:
		return fmt.Errorf("invalid run: generator fell behind its own schedule (late p99 %v > %v)", ls.lateP99, lateLimit)
	}
	return nil
}
