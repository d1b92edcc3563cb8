package ring

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"audiofile/internal/atime"
)

func TestRoundFrames(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 3: 4, 1000: 1024, 32000: 32768, 65536: 65536}
	for in, want := range cases {
		if got := RoundFrames(in); got != want {
			t.Errorf("RoundFrames(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, bad := range []struct{ frames, fb int }{{3, 1}, {0, 1}, {-4, 1}, {8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", bad.frames, bad.fb)
				}
			}()
			New(bad.frames, bad.fb)
		}()
	}
}

func TestWriteReadSimple(t *testing.T) {
	r := New(16, 2)
	data := []byte{1, 2, 3, 4, 5, 6}
	r.WriteAt(4, data)
	got := make([]byte, 6)
	r.ReadAt(4, got)
	if !bytes.Equal(got, data) {
		t.Errorf("read back %v, want %v", got, data)
	}
}

func TestWrapWithinRing(t *testing.T) {
	r := New(8, 1)
	data := []byte{10, 11, 12, 13}
	r.WriteAt(6, data) // occupies offsets 6,7,0,1
	got := make([]byte, 4)
	r.ReadAt(6, got)
	if !bytes.Equal(got, data) {
		t.Errorf("wrap read %v, want %v", got, data)
	}
	// Also readable frame by frame at wrapped offsets.
	one := make([]byte, 1)
	r.ReadAt(6+2, one)
	if one[0] != 12 {
		t.Errorf("frame at t=8 is %d, want 12", one[0])
	}
}

func TestTimeWrapContinuity(t *testing.T) {
	// Writing across the 2^32 device-time wrap must be continuous because
	// the capacity is a power of two.
	r := New(16, 1)
	start := atime.ATime(math.MaxUint32 - 3)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	r.WriteAt(start, data)
	got := make([]byte, 8)
	r.ReadAt(start, got)
	if !bytes.Equal(got, data) {
		t.Errorf("time-wrap read %v, want %v", got, data)
	}
	// The frame at t=0 (4 frames after start) must be data[4].
	one := make([]byte, 1)
	r.ReadAt(0, one)
	if one[0] != 5 {
		t.Errorf("frame at wrap = %d, want 5", one[0])
	}
}

func TestRegionSlices(t *testing.T) {
	r := New(8, 2)
	a, b := r.Region(0, 8)
	if len(a) != 16 || b != nil {
		t.Errorf("full region from 0: len(a)=%d b=%v", len(a), b)
	}
	a, b = r.Region(6, 4)
	if len(a) != 4 || len(b) != 4 {
		t.Errorf("wrapped region: len(a)=%d len(b)=%d, want 4/4", len(a), len(b))
	}
	// Region slices alias storage: writing through them is visible to ReadAt.
	a[0] = 99
	got := make([]byte, 2)
	r.ReadAt(6, got)
	if got[0] != 99 {
		t.Error("region slice does not alias ring storage")
	}
}

func TestRegionPanicsOnOversize(t *testing.T) {
	r := New(8, 1)
	defer func() {
		if recover() == nil {
			t.Error("oversized Region did not panic")
		}
	}()
	r.Region(0, 9)
}

func TestFill(t *testing.T) {
	r := New(8, 2)
	for i := 0; i < 16; i++ {
		a, _ := r.Region(0, 8)
		a[i] = byte(i + 1)
	}
	r.Fill(6, 4, 0xAA) // wraps
	got := make([]byte, 8)
	r.ReadAt(6, got)
	for i, v := range got {
		if v != 0xAA {
			t.Errorf("fill[%d] = %#x, want 0xaa", i, v)
		}
	}
	// Frames before the filled region are untouched.
	got = make([]byte, 2)
	r.ReadAt(5, got)
	if got[0] == 0xAA && got[1] == 0xAA {
		t.Error("fill overwrote frame before region")
	}
}

// FilledFrames counts exactly the frames Fill writes, wrapping or not;
// WriteAt, ReadAt and the silence ReadWindow writes into the caller's
// buffer leave it unchanged.
func TestFillFilledFrames(t *testing.T) {
	r := New(16, 4)
	r.Fill(0, 16, 0)
	r.ResetFilledFrames()
	r.Fill(12, 7, 0xFF) // wraps
	r.Fill(3, 0, 0xFF)
	r.Fill(math.MaxUint32-1, 5, 0xD5) // wraps in device time too
	if got := r.FilledFrames(); got != 12 {
		t.Fatalf("FilledFrames after fills = %d, want 12", got)
	}
	r.WriteAt(14, make([]byte, 4*4))
	r.ReadAt(2, make([]byte, 4*9))
	buf := make([]byte, 4*40)
	if n := r.ReadWindow(100, buf, 110, 126, 0xFF); n != 16 {
		t.Fatalf("ReadWindow valid = %d, want 16", n)
	}
	if n := r.ReadWindow(100, buf, 7, 7, 0xFF); n != 0 {
		t.Fatalf("ReadWindow over an empty window = %d, want 0", n)
	}
	if got := r.FilledFrames(); got != 12 {
		t.Errorf("FilledFrames after writes and reads = %d, want 12", got)
	}
}

// Property: data written at time t is read back identically at t, for any
// t, as long as it fits in the ring.
func TestQuickRoundTrip(t *testing.T) {
	r := New(64, 2)
	f := func(start uint32, data []byte) bool {
		n := len(data) / 2 * 2
		if n > r.Bytes() {
			n = r.Bytes()
		}
		d := data[:n]
		r.WriteAt(atime.ATime(start), d)
		got := make([]byte, n)
		r.ReadAt(atime.ATime(start), got)
		return bytes.Equal(got, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two writes to disjoint time regions (within capacity) don't
// interfere.
func TestQuickDisjointWrites(t *testing.T) {
	r := New(64, 1)
	f := func(start uint32, a, b byte) bool {
		t0 := atime.ATime(start)
		r.WriteAt(t0, []byte{a, a, a, a})
		r.WriteAt(t0+4, []byte{b, b, b, b})
		got := make([]byte, 8)
		r.ReadAt(t0, got)
		for i := 0; i < 4; i++ {
			if got[i] != a || got[4+i] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
