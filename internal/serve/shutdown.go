package serve

import (
	"os"
	"os/signal"
	"syscall"
	"time"
)

// WaitForShutdown blocks until the process should exit: SIGINT or
// SIGTERM arrives, or hold elapses — whichever comes first.
//
//   - hold < 0: wait for a signal alone (serve forever);
//   - hold == 0: return immediately (one-shot runs that only hold the
//     server open as a side effect of other work);
//   - hold > 0: wait up to hold, a signal ends the wait early.
//
// It returns the reason ("signal" or "hold elapsed") so callers can
// log which path ended the run. This replaces the old fixed
// `-telemetry-hold` sleep on the CLI tools: a scrape-and-kill CI job
// or an operator's Ctrl-C now ends the hold the moment it fires
// instead of waiting out the timer, and the binaries get a uniform
// graceful-drain trigger.
func WaitForShutdown(hold time.Duration) string {
	return NotifyShutdown(hold)()
}

// NotifyShutdown installs the signal handler of WaitForShutdown at once
// and returns the wait. A server calls it before it reports itself
// ready, so a signal sent right after the report ends the wait instead
// of killing the process with the default action.
func NotifyShutdown(hold time.Duration) (wait func() string) {
	if hold == 0 {
		return func() string { return "hold elapsed" }
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return func() string {
		defer signal.Stop(sig)
		if hold < 0 {
			<-sig
			return "signal"
		}
		t := time.NewTimer(hold)
		defer t.Stop()
		select {
		case <-sig:
			return "signal"
		case <-t.C:
			return "hold elapsed"
		}
	}
}
