package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"audiofile/internal/proto"
	"audiofile/internal/sampleconv"
)

// probeLayers times the layers the benchmark can reach only from
// outside the server: the bare socket, the protocol codec and the mix
// kernels, each fed the traced window's own op mix and block sizes.
func probeLayers(rep *report, cfg *runConfig, transport string, recs []*recorder) error {
	// An equal share of every connection's calls, in call order.
	var ops []span
	var playSizes []int
	for _, r := range recs {
		for _, s := range r.spans[:min(len(r.spans), 4096/len(recs))] {
			ops = append(ops, s)
			if s.class == clsPlay {
				playSizes = append(playSizes, int(s.bytes))
			}
		}
	}
	if len(ops) == 0 || len(playSizes) == 0 {
		return errors.New("traced window made no plays")
	}
	rtt, bulk, err := socketProbe(cfg, transport)
	if err != nil {
		return err
	}
	rep.set("socket.rtt_p50_us", rtt, "us")
	rep.set("socket.bulk_MBps", bulk, "MB/s")
	enc, dec := protoProbe(ops)
	rep.set("proto.encode_ns_per_op", enc, "ns")
	rep.set("proto.decode_ns_per_op", dec, "ns")
	rep.set("sampleconv.mix_mu_ns_per_frame",
		kernelProbe(sampleconv.SelectKernel(sampleconv.MU255, sampleconv.MU255, true, false), sampleconv.GainUnity, playSizes, 1), "ns")
	minus6 := sampleconv.GainQ16(math.Pow(10, -6.0/20))
	rep.set("sampleconv.mix_lin16_ns_per_frame",
		kernelProbe(sampleconv.SelectKernel(sampleconv.LIN16, sampleconv.LIN16, true, true), minus6, playSizes, 4), "ns")
	return nil
}

// probeTime is how long each micro-probe repeats its work.
const probeTime = 150 * time.Millisecond

// socketProbe measures the transport under the workload without AF: the
// median round trip of an 8-byte ping-pong, and the rate of a one-way
// bulk copy in 64 KiB writes.
func socketProbe(cfg *runConfig, network string) (rttP50us, bulkMBps float64, err error) {
	l, err := net.Listen(network, cfg.listenAddr(network))
	if err != nil {
		return 0, 0, err
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer l.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			if i == 0 {
				io.Copy(c, c) //nolint:errcheck // echo until the client closes
			} else {
				io.Copy(io.Discard, c) //nolint:errcheck // sink until the client half-closes
				c.Write([]byte{1})     //nolint:errcheck // the client reads the ack
			}
			c.Close()
		}
	}()

	c, err := dial(l)
	if err != nil {
		return 0, 0, err
	}
	var ping [8]byte
	var lat []int64
	for end := time.Now().Add(probeTime); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := c.Write(ping[:]); err != nil {
			c.Close()
			return 0, 0, err
		}
		if _, err := io.ReadFull(c, ping[:]); err != nil {
			c.Close()
			return 0, 0, err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	c.Close()

	c, err = dial(l)
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	chunk := make([]byte, 64<<10)
	var sent int
	t0 := time.Now()
	for end := t0.Add(probeTime); time.Now().Before(end); sent += len(chunk) {
		if _, err := c.Write(chunk); err != nil {
			return 0, 0, err
		}
	}
	if err := c.(interface{ CloseWrite() error }).CloseWrite(); err != nil {
		return 0, 0, err
	}
	if _, err := io.ReadFull(c, chunk[:1]); err != nil {
		return 0, 0, err
	}
	return quantile(lat, 0.5) / 1e3, float64(sent) / time.Since(t0).Seconds() / 1e6, nil
}

// protoProbe times the public request encoders and the reply decoder on
// the traced op mix, chunked and headed the way the af library sends
// and receives them. It returns nanoseconds per af call.
func protoProbe(ops []span) (encNs, decNs float64) {
	payload := make([]byte, 1<<16)
	w := proto.Writer{Order: binary.LittleEndian}
	encode := func(s span) {
		switch s.class {
		case clsGetTime:
			proto.AppendDeviceReq(&w, proto.OpGetTime, 0) //nolint:errcheck // fixed-size request
		case clsPlay:
			for n := int(s.bytes); n > 0; n -= proto.ChunkBytes {
				q := proto.PlaySamplesReq{AC: 1, Time: 1000, Data: payload[:min(n, proto.ChunkBytes)]}
				if s.bytes >= 2048 { // the library's vectored path ships headers only
					proto.AppendPlaySamplesHeader(&w, q, len(q.Data)) //nolint:errcheck // chunk within limits
				} else {
					proto.AppendPlaySamples(&w, q) //nolint:errcheck // chunk within limits
				}
			}
		case clsRecord:
			for n := int(s.bytes); n > 0; n -= proto.ChunkBytes {
				proto.AppendRecordSamples(&w, proto.RecordSamplesReq{AC: 1, Time: 1000, NBytes: uint32(min(n, proto.ChunkBytes))}) //nolint:errcheck // fixed-size request
			}
		default:
			proto.AppendGainReq(&w, proto.OpSetOutputGain, proto.GainReq{Gain: -3}) //nolint:errcheck // fixed-size request
		}
	}
	var calls int
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		for _, s := range ops {
			encode(s)
			if len(w.Buf) > 1<<20 {
				w.Reset()
			}
		}
		calls += len(ops)
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / float64(calls)

	// The reply stream the same calls produce.
	w.Reset()
	for i, s := range ops {
		rep := proto.Reply{Seq: uint16(i), Time: 1000}
		switch s.class {
		case clsRecord:
			for n := int(s.bytes); n > 0; n -= proto.ChunkBytes {
				rep.Extra = payload[:min(n, proto.ChunkBytes)]
				rep.Aux = uint32(len(rep.Extra))
				rep.Encode(&w)
			}
			continue
		case clsControl:
			rep.Extra = payload[:8]
		}
		rep.Encode(&w)
	}
	stream := w.Buf
	var m proto.Message
	rd := bytes.NewReader(stream)
	calls = 0
	t0 = time.Now()
	for time.Since(t0) < probeTime {
		rd.Reset(stream)
		for proto.ReadMessageInto(rd, binary.LittleEndian, &m) == nil {
		}
		calls += len(ops)
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	return encNs, decNs
}

// kernelProbe times a mix kernel over the workload's play block sizes
// and returns nanoseconds per frame of frameBytes bytes.
func kernelProbe(k sampleconv.Kernel, gainQ16 int32, sizes []int, frameBytes int) float64 {
	biggest := 0
	for _, s := range sizes {
		biggest = max(biggest, s)
	}
	dst, src := make([]byte, biggest), make([]byte, biggest)
	for i := range src {
		src[i] = byte(i * 7)
		dst[i] = byte(i * 13)
	}
	bytesPerSample := 1
	if frameBytes == 4 {
		bytesPerSample = 2 // lin16 stereo
	}
	var frames int
	t0 := time.Now()
	for time.Since(t0) < probeTime {
		for _, s := range sizes {
			s -= s % frameBytes
			k(dst[:s], src[:s], s/bytesPerSample, gainQ16)
			frames += s / frameBytes
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(frames)
}
