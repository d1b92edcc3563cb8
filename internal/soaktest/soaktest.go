// Package soaktest holds what the soak and fault-injection tests share:
// the seed a run takes from its environment, background steppers,
// first-error capture, condition polling, the goroutine-settle check, and
// reporting of broken conservation laws. It imports nothing from this
// module, so the internal tests of any package can use it without an
// import cycle.
package soaktest

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// Seed returns the integer in the environment variable name, or def
// when it is unset. A malformed value fails the test.
func Seed(t testing.TB, name string, def int64) int64 {
	t.Helper()
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: %v", name, s, err)
	}
	return v
}

// Every calls step, then sleeps period, over and over on its own
// goroutine (a clock stepper, a gauge watcher) until the returned stop is
// called or the test ends. stop waits for the goroutine to exit; calling
// it again does nothing.
func Every(t testing.TB, period time.Duration, step func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-done:
				return
			default:
			}
			step()
			time.Sleep(period)
		}
	}()
	var once sync.Once
	stop = func() { once.Do(func() { close(done); <-exited }) }
	t.Cleanup(stop)
	return stop
}

// FirstError keeps the first error that any goroutine reports.
type FirstError struct {
	mu  sync.Mutex
	err error
}

// Set records err unless it is nil or an error is already recorded.
func (f *FirstError) Set(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the recorded error, or nil.
func (f *FirstError) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// WaitFor polls cond until it holds, failing the test if it does not
// within timeout.
func WaitFor(t testing.TB, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Settle waits up to timeout for the goroutine count to fall back to
// baseline (a runtime.NumGoroutine taken before the test started its
// goroutines) and fails the test with every stack if it does not.
func Settle(t testing.TB, baseline int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		stack := make([]byte, 1<<20)
		stack = stack[:runtime.Stack(stack, true)]
		t.Errorf("goroutines did not settle: %d > baseline %d\n%s", n, baseline, stack)
	}
}

// Laws fails the test once for each violation a snapshot's Laws method
// reported, naming where the snapshot was taken.
func Laws[V fmt.Stringer](t testing.TB, where string, violations []V) {
	t.Helper()
	for _, v := range violations {
		t.Errorf("%s: law %v", where, v)
	}
}
