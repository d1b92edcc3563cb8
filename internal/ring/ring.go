// Package ring implements the circular, device-time-indexed sample buffers
// at the heart of the AudioFile server: the ~4 second per-device play and
// record buffers, and the small "hardware" rings inside the simulated audio
// devices.
//
// A ring holds a fixed, power-of-two number of frames (a frame is one
// sample tick across all channels). Frame f of the audio timeline lives at
// ring offset f & (frames-1); because the capacity divides 2^32, the
// mapping stays continuous when device time wraps, exactly like the
// DSP56001 circular addressing the paper relies on.
package ring

import (
	"fmt"

	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
)

// Ring is a time-indexed circular buffer of sample frames.
type Ring struct {
	buf        []byte
	frames     uint32 // power of two
	mask       uint32
	frameBytes int

	// filled counts frames written by Fill over the ring's lifetime —
	// for the server's play buffer that is exactly the silence-filled
	// sample count the observability layer reports. Plain (not atomic):
	// a Ring is single-owner, guarded by its device's engine lock; the
	// metrics snapshot reads it under the same lock.
	filled uint64
}

// RoundFrames rounds n up to the next power of two (minimum 2).
func RoundFrames(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// New creates a ring holding the given number of frames, each frameBytes
// long. frames must be a power of two.
func New(frames, frameBytes int) *Ring {
	if frames <= 0 || frames&(frames-1) != 0 {
		panic(fmt.Sprintf("ring: frames %d is not a power of two", frames))
	}
	if frameBytes <= 0 {
		panic("ring: frameBytes must be positive")
	}
	return &Ring{
		buf:        make([]byte, frames*frameBytes),
		frames:     uint32(frames),
		mask:       uint32(frames - 1),
		frameBytes: frameBytes,
	}
}

// Frames returns the ring capacity in frames.
func (r *Ring) Frames() int { return int(r.frames) }

// FrameBytes returns the size of one frame in bytes.
func (r *Ring) FrameBytes() int { return r.frameBytes }

// Bytes returns the total buffer size in bytes.
func (r *Ring) Bytes() int { return len(r.buf) }

// Region returns the storage for nframes frames starting at time t as at
// most two contiguous byte slices (two when the region wraps the end of
// the buffer). nframes must not exceed the ring capacity. The slices alias
// the ring's storage: callers may read, overwrite, or mix in place.
func (r *Ring) Region(t atime.ATime, nframes int) (a, b []byte) {
	if nframes < 0 || uint32(nframes) > r.frames {
		panic(fmt.Sprintf("ring: region of %d frames exceeds capacity %d", nframes, r.frames))
	}
	start := uint32(t) & r.mask
	first := r.frames - start
	if uint32(nframes) <= first {
		off := int(start) * r.frameBytes
		return r.buf[off : off+nframes*r.frameBytes], nil
	}
	off := int(start) * r.frameBytes
	a = r.buf[off : off+int(first)*r.frameBytes]
	b = r.buf[:(nframes-int(first))*r.frameBytes]
	return a, b
}

// WriteAt copies frame data into the ring starting at time t. len(data)
// must be a whole number of frames and at most the ring size.
func (r *Ring) WriteAt(t atime.ATime, data []byte) {
	n := len(data) / r.frameBytes
	a, b := r.Region(t, n)
	copy(a, data)
	if b != nil {
		copy(b, data[len(a):])
	}
}

// ReadAt copies frame data out of the ring starting at time t into buf.
// len(buf) must be a whole number of frames and at most the ring size.
func (r *Ring) ReadAt(t atime.ATime, buf []byte) {
	n := len(buf) / r.frameBytes
	a, b := r.Region(t, n)
	copy(buf, a)
	if b != nil {
		copy(buf[len(a):], b)
	}
}

// ReadWindow copies frames [t, t+n) into buf, n = len(buf)/FrameBytes.
// Only frames inside the valid window [lo, hi) come from the ring, in at
// most two region copies; every frame outside it reads as the byte
// silence. It returns the number of valid frames. The window must be no
// longer than the ring (lo == hi is the empty window) and n below 2^31.
//
// This is the update task's block move (§7.2): the window is placed
// relative to t once, with wrapped-time arithmetic, so the valid frames
// are the one run [a, end) of buf's frame indexes.
func (r *Ring) ReadWindow(t atime.ATime, buf []byte, lo, hi atime.ATime, silence byte) int {
	fb := r.frameBytes
	n := len(buf) / fb
	buf = buf[:n*fb]
	a := int(atime.Sub(lo, t))
	end := a + int(atime.Sub(hi, lo))
	a, end = max(a, 0), min(end, n)
	if a >= end {
		sampleconv.Fill(buf, silence)
		return 0
	}
	sampleconv.Fill(buf[:a*fb], silence)
	r.ReadAt(atime.Add(t, a), buf[a*fb:end*fb])
	sampleconv.Fill(buf[end*fb:], silence)
	return end - a
}

// Fill writes the byte value v over nframes frames starting at time t
// (used for silence fill).
func (r *Ring) Fill(t atime.ATime, nframes int, v byte) {
	a, b := r.Region(t, nframes)
	sampleconv.Fill(a, v)
	sampleconv.Fill(b, v)
	r.filled += uint64(nframes)
}

// FilledFrames returns the cumulative number of frames written by Fill.
func (r *Ring) FilledFrames() uint64 { return r.filled }

// ResetFilledFrames zeroes the fill counter. Device bring-up fills the
// whole ring with silence once; resetting afterwards keeps the counter
// meaning "silence inserted during operation".
func (r *Ring) ResetFilledFrames() { r.filled = 0 }
