package metrics

import "fmt"

// Conservation laws. Each snapshot type (the server's, the router's and
// the lineserver backend's) states its own laws in one Laws(mode)
// method: a law is a pair of counter sums that must balance, each sum
// owned by one writer. Counters are read one at a time, never under a
// global lock, so an exact law holds only when the owner is quiescent.
// While traffic flows a law can hold in a one-sided form, when the
// snapshot reads the side that is incremented first after the side that
// is incremented second: the first can then only be ahead.

// Mode selects which form of its laws a snapshot is held to.
type Mode int

const (
	// Live checks the one-sided forms, which hold in any snapshot.
	Live Mode = iota
	// Drained checks the exact forms, which hold once the owner is
	// quiescent (no clients, no sessions, backend closed).
	Drained
)

func (m Mode) String() string {
	if m == Drained {
		return "drained"
	}
	return "live"
}

// Balanced reports whether lead and lag obey a law in mode m: equal when
// Drained; lead >= lag when Live. lead is the side the owner increments
// first and the snapshot reads last.
func (m Mode) Balanced(lead, lag uint64) bool {
	if m == Drained {
		return lead == lag
	}
	return lead >= lag
}

// Violation is one broken law: its stable name and the offending values.
type Violation struct {
	Law    string
	Detail string
}

func (v Violation) String() string { return v.Law + ": " + v.Detail }

// Violations collects the laws a snapshot breaks.
type Violations []Violation

// Check records law as broken, with a formatted detail, unless ok.
func (vs *Violations) Check(ok bool, law, format string, args ...any) {
	if !ok {
		*vs = append(*vs, Violation{Law: law, Detail: fmt.Sprintf(format, args...)})
	}
}
