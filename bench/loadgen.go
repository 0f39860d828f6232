package main

import (
	"bufio"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// sample is one request's outcome. Times are offsets from the phase
// start. A request that never reached the server has err set.
type sample struct {
	idx             int // position in the stream the request came from
	due, sent, done time.Duration
	status          int
	// body is kept for the oracle; fp fingerprints every body, so a
	// repeat of a request whose body was not kept is checked against
	// the first serving.
	body []byte
	fp   uint64
	err  error
}

// latency is the open-loop latency, timed from when the request was due.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent - s.due }

// fpSeed keys body fingerprints; one seed per process keeps them
// comparable within a run.
var fpSeed = maphash.MakeSeed()

// sleepUntil parks the calling OS thread until due after start.
// time.Sleep rounds up to the runtime timer's granularity, which on a
// two-core box overshoots by about a millisecond — more than a cache-hit
// round trip — so senders lock their thread and call nanosleep directly.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop recomputes the rest
	}
}

// realtime moves the calling thread, which must be locked, to
// SCHED_FIFO at the lowest real-time priority and returns the function
// that moves it back. Load generator and server share the cores: when
// the server's query fan-out or a corpus reload keeps every core busy,
// a sender at normal priority wakes from nanosleep up to a scheduler
// tick late, several milliseconds, and the generator rather than the
// server shapes the load. Without the privilege (CAP_SYS_NICE) it
// reports false, the sender runs at normal priority, and the lag check
// shows the cost.
func realtime() (restore func(), ok bool) {
	param := struct{ priority int32 }{1}
	const schedOther, schedFIFO = 0, 1
	set := func(policy int) syscall.Errno {
		_, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, uintptr(policy), uintptr(unsafe.Pointer(&param)))
		return errno
	}
	if set(schedFIFO) != 0 {
		return func() {}, false
	}
	return func() {
		param.priority = 0
		set(schedOther)
	}, true
}

// readResponse reads one HTTP/1.1 response off a (possibly pipelined)
// connection.
func readResponse(br *bufio.Reader) (int, []byte, error) {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// openLoop sends reqs[i] at start+due[i] regardless of how fast the
// server answers. Request i goes out on connection lanes[i] mod conns
// (i mod conns when lanes is nil). Each connection has one sender,
// locked to its OS thread, and one reader, and requests are pipelined
// so a slow response never delays a later send — it shows up as
// latency instead, because latency is timed from the due time. Every
// request yields a sample; the phase ends when all are answered or
// deadline passes. realtime reports whether every sender ran at
// real-time priority.
func openLoop(addr string, reqs []request, due []time.Duration, lanes []int, conns int, start, deadline time.Time) (samples []sample, realtime bool) {
	out := make([]sample, len(reqs))
	rt := make([]bool, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []int
			for i := range reqs {
				lane := i
				if lanes != nil {
					lane = lanes[i]
				}
				if lane%conns == c {
					mine = append(mine, i)
				}
			}
			rt[c] = openConn(addr, reqs, due, out, mine, start, deadline)
		}(c)
	}
	wg.Wait()
	realtime = true
	for _, ok := range rt {
		realtime = realtime && ok
	}
	return out, realtime
}

// openConn sends the requests indexed by mine, in order, on one
// connection.
func openConn(addr string, reqs []request, due []time.Duration, out []sample, mine []int, start, deadline time.Time) (rt bool) {
	for _, i := range mine {
		out[i].idx, out[i].due = i, due[i]
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		for _, i := range mine {
			out[i].err = err
		}
		return
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)

	// sent carries the index of each request written, in write order,
	// to the reader; it is sized to this connection's share of sends so
	// the sender never blocks on it.
	sent := make(chan int, len(mine))
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		br := bufio.NewReaderSize(conn, 64<<10)
		var rerr error
		for i := range sent {
			if rerr == nil {
				var body []byte
				out[i].status, body, rerr = readResponse(br)
				out[i].done = time.Since(start)
				out[i].body, out[i].fp = body, maphash.Bytes(fpSeed, body)
				if rerr != nil {
					// Unblock a sender stuck writing to a dead peer.
					conn.Close()
				}
			}
			if rerr != nil {
				out[i].err = rerr
			}
		}
	}()

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	restore, rt := realtime()
	var werr error
	for _, i := range mine {
		if werr == nil {
			sleepUntil(start, due[i])
			out[i].sent = time.Since(start)
			_, werr = conn.Write(reqs[i].wire)
		}
		if werr != nil {
			out[i].err = werr
			continue
		}
		sent <- i
	}
	restore()
	close(sent)
	<-readerDone
	return rt
}

// closedLoop keeps one request outstanding on each of conns
// connections, taking requests from reqs in order and cycling, until
// dur has passed since start. Bodies of the first pass over reqs are
// kept; later passes keep only the fingerprint.
func closedLoop(addr string, reqs []request, conns int, start time.Time, dur time.Duration, deadline time.Time) ([]sample, error) {
	var next atomic.Int64
	per := make([][]sample, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c], errs[c] = closedConn(addr, reqs, &next, start, dur, deadline)
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, errors.Join(errs...)
}

func closedConn(addr string, reqs []request, next *atomic.Int64, start time.Time, dur time.Duration, deadline time.Time) ([]sample, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	br := bufio.NewReaderSize(conn, 64<<10)
	var out []sample
	for time.Since(start) < dur {
		k := int(next.Add(1) - 1)
		s := sample{idx: k, sent: time.Since(start)}
		s.due = s.sent
		if _, err := conn.Write(reqs[k%len(reqs)].wire); err != nil {
			s.err = err
			return append(out, s), nil
		}
		var body []byte
		s.status, body, s.err = readResponse(br)
		s.done = time.Since(start)
		s.fp = maphash.Bytes(fpSeed, body)
		if k < len(reqs) {
			s.body = body
		}
		out = append(out, s)
		if s.err != nil {
			return out, nil
		}
	}
	return out, nil
}

// sendAt sends r at each start+due[i], each time on a fresh connection
// (the server drops a connection that sends nothing for its header
// timeout), waiting for the answer: the corpus-reload writer that runs
// beside the readers.
func sendAt(addr string, r request, due []time.Duration, start, deadline time.Time) []sample {
	out := make([]sample, len(due))
	for i, d := range due {
		timer := time.NewTimer(time.Until(start.Add(d)))
		<-timer.C
		s := &out[i]
		s.due, s.sent = d, time.Since(start)
		s.status, s.body, s.err = roundTrip(addr, r, deadline)
		s.done = time.Since(start)
		s.fp = maphash.Bytes(fpSeed, s.body)
	}
	return out
}

// roundTrip sends r on a new connection and reads the answer.
func roundTrip(addr string, r request, deadline time.Time) (int, []byte, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(r.wire); err != nil {
		return 0, nil, err
	}
	return readResponse(bufio.NewReader(conn))
}
