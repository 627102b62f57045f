// Package lib plants one case of each kind the reachability check must
// tell apart.
package lib

// Used is called by the command.
func Used() int { return helper() }

func helper() int { return 1 }

// orphan is unexported and nothing calls it, so it is reported.
func orphan() int { return 5 }

// OnlyTested is referenced only from lib_test.go, so it is reported.
func OnlyTested() int { return 2 }

// OnlyTestedConst is likewise referenced only from a test.
const OnlyTestedConst = 3

// OnlyHarness is referenced only by the second module.
func OnlyHarness() int { return 4 }

// Helper satisfies the command's renderer interface.
type Helper struct{}

// Render is reached only through the renderer interface.
func (Helper) Render() string { return "h" }

// Unused satisfies no interface the program calls, so it is reported.
func (Helper) Unused() string { return "u" }

// Sink is the command's output interface: it calls Write, never Drain,
// so Drain is reported, on the interface and on Buffer.
type Sink interface {
	Write(s string)
	Drain()
}

// Buffer implements Sink.
type Buffer struct{ out []string }

// Write is reached through Sink.
func (b *Buffer) Write(s string) { b.out = append(b.out, s) }

// Drain satisfies only an interface method nothing calls.
func (b *Buffer) Drain() { b.out = nil }

// Level is converted to by the command; fmt reaches its String method
// through fmt.Stringer.
type Level int

// String satisfies fmt.Stringer.
func (l Level) String() string { return "level" }
