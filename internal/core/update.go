package core

import (
	"audiofile/internal/atime"
	"audiofile/internal/sampleconv"
)

// Update is the body of the periodic update task (§7.2, Figure 5): it
// advances the server's time register, moves the next batch of playback
// data from the server buffer into the hardware buffer (applying the
// master output gain), and — when any context is recording — moves new
// record data from the hardware into the server buffer. Views share their
// parent's update.
func (d *Device) Update() {
	r := d.root()
	now := r.backend.Time()
	r.now = now
	hw := r.backend.HWFrames()
	horizon := atime.Add(now, hw)

	// Account underruns: frames that slid into the past since the last
	// update without having been pushed, while valid client data covered
	// them.
	if atime.Before(r.timeNextUpdate, now) {
		missedEnd := atime.Min(now, r.timeLastValid)
		if atime.After(missedEnd, r.timeNextUpdate) {
			r.Underruns += uint64(atime.Sub(missedEnd, r.timeNextUpdate))
		}
		r.timeNextUpdate = now
	}

	// Play side: only runs while timeLastValid is in the future relative
	// to device time (the play-update optimization); the hardware backfills
	// silence on its own for uncovered regions.
	if r.outputsEnabled != 0 && atime.After(r.timeLastValid, r.timeNextUpdate) {
		end := atime.Min(horizon, r.timeLastValid)
		if n := int(atime.Sub(end, r.timeNextUpdate)); n > 0 {
			r.pushToHW(r.timeNextUpdate, n)
		}
	}
	r.timeNextUpdate = horizon

	// Record side: only runs when a context is recording.
	if r.RecRefCount > 0 {
		r.recUpdate(now)
	}
}

// pushToHW copies n frames starting at t from the play buffer to the
// hardware, applying the master output gain.
func (r *Device) pushToHW(t atime.ATime, n int) {
	maxChunk := len(r.scratch) / r.frameBytes
	gain := gainFactor(r.outputGainDB)
	for n > 0 {
		c := n
		if c > maxChunk {
			c = maxChunk
		}
		buf := r.scratch[:c*r.frameBytes]
		r.playBuf.ReadAt(t, buf)
		if gain != 1.0 {
			sampleconv.ApplyGain(r.Cfg.Enc, buf, c*r.Cfg.Channels, gain)
		}
		r.backend.WritePlay(t, buf)
		t = atime.Add(t, c)
		n -= c
	}
}

// recUpdate makes the record buffer consistent through now: data since
// timeRecLastUpdated is pulled from the hardware (with the master input
// gain applied); any span the small hardware buffer no longer holds is
// filled with silence.
func (r *Device) recUpdate(now atime.ATime) {
	start := r.timeRecLastUpdated
	span := int(atime.Sub(now, start))
	if span <= 0 {
		return
	}
	hw := r.backend.HWFrames()
	if span > r.bufFrames {
		// Older data would overwrite itself in the ring; skip ahead.
		start = atime.Add(now, -r.bufFrames)
		span = r.bufFrames
	}
	if span > hw {
		// The hardware only retains the last hw frames; the rest is gone.
		lost := span - hw
		fillFrom := start
		for lost > 0 {
			c := lost
			if c > r.bufFrames {
				c = r.bufFrames
			}
			r.recBuf.Fill(fillFrom, c, r.silence)
			fillFrom = atime.Add(fillFrom, c)
			lost -= c
		}
		start = atime.Add(now, -hw)
		span = hw
	}
	gain := gainFactor(r.inputGainDB)
	maxChunk := len(r.scratch) / r.frameBytes
	for span > 0 {
		c := span
		if c > maxChunk {
			c = maxChunk
		}
		buf := r.scratch[:c*r.frameBytes]
		if r.inputsEnabled == 0 {
			sampleconv.Fill(buf, r.silence)
		} else {
			r.backend.ReadRecord(start, buf)
			if gain != 1.0 {
				sampleconv.ApplyGain(r.Cfg.Enc, buf, c*r.Cfg.Channels, gain)
			}
		}
		r.recBuf.WriteAt(start, buf)
		start = atime.Add(start, c)
		span -= c
	}
	r.timeRecLastUpdated = now
}
