package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared virtual machines whose speed drifts by
// tens of percent within minutes, as neighbours load the host, and that
// drift is most of the spread between runs. So a probe thread samples the
// machine's speed throughout each run. Every probeEvery it runs a fixed
// kernel twice and times the second run on its own CPU clock: the first
// run wakes the CPU, and the kernel is a xorshift loop that stays in
// registers, so the server's load, which changes what sits in the caches,
// does not reach the timing. End-to-end times are reported at reference
// speed: each divided by its phase's slowdown (the probe's median kernel
// time over speedRef), and throughputs multiplied by it. Raw values stay
// in the result's info. README.md gives the check that the probe does not
// follow the server's load.

const (
	probeEvery = 50 * time.Millisecond
	aluRounds  = 100_000
	// speedRef is the kernel's time at reference speed, its usual
	// fastest reading on the two-core Xeon VM the benchmark was written
	// on.
	speedRef = 200 * time.Microsecond
)

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// aluKernel is the probe's fixed work, touching no memory.
func aluKernel(rounds int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

type speedSample struct {
	at  time.Time
	cpu time.Duration
}

// speedProbe samples the machine's speed until finished.
type speedProbe struct {
	stop    chan struct{}
	done    chan speed
	once    sync.Once
	samples speed
	// sink keeps the kernel's result live.
	sink uint64
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan speed, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var out speed
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.done <- out
				return
			case <-tick.C:
				at := time.Now()
				p.sink += aluKernel(aluRounds)
				t0 := threadCPU()
				p.sink += aluKernel(aluRounds)
				out = append(out, speedSample{at: at, cpu: threadCPU() - t0})
			}
		}
	}()
	return p
}

// finish stops the probe, waits for it, and returns its samples; later
// calls return the same samples.
func (p *speedProbe) finish() speed {
	p.once.Do(func() {
		close(p.stop)
		p.samples = <-p.done
	})
	return p.samples
}

// speed is a run's probe samples.
type speed []speedSample

// slowdown is how much slower than reference speed the machine ran in
// [from, to): the median kernel time of the samples taken then over
// speedRef, or over the whole run when the interval holds fewer than
// three samples.
func (s speed) slowdown(from, to time.Time) float64 {
	var in, all []time.Duration
	for _, x := range s {
		all = append(all, x.cpu)
		if !x.at.Before(from) && x.at.Before(to) {
			in = append(in, x.cpu)
		}
	}
	if len(in) < 3 {
		in = all
	}
	if len(in) == 0 {
		return 1
	}
	return float64(percentile(in, 0.5)) / float64(speedRef)
}
