package serve

import (
	"fmt"
	"io"
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
// log which path ended the run. It is the `-hold` of the CLI tools,
// not a fixed sleep: a scrape-and-kill CI job or an operator's Ctrl-C
// ends the hold the moment it fires instead of waiting out the timer,
// and the binaries get a uniform graceful-drain trigger.
func WaitForShutdown(hold time.Duration) string {
	return NotifyShutdown(hold)()
}

// Hold is a tool's -hold: it keeps the process, and so its /metrics
// endpoint, up after the run as WaitForShutdown does, and logs to w
// when the hold starts and how it ended. A zero hold returns at once.
func Hold(w io.Writer, tool string, hold time.Duration) {
	if hold == 0 {
		return
	}
	fmt.Fprintf(w, "%s: holding /metrics open for %s\n", tool, hold)
	fmt.Fprintf(w, "%s: hold ended (%s)\n", tool, WaitForShutdown(hold))
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
