package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// schedule is an open-loop arrival schedule: request k is due at
// k/rate after the start, whatever became of the requests before it.
// An infinite rate makes every request due at the start, so each
// connection sends its next request as soon as the previous one
// completes: a closed loop.
type schedule struct {
	rate float64 // requests per second
	n    int
}

func (s schedule) due(k int) time.Duration {
	return time.Duration(float64(k) * float64(time.Second) / s.rate)
}

// sample is one request's timeline, as offsets from the schedule start.
type sample struct {
	due, sent, done time.Duration
	ok              bool
}

// latency is the due-time latency: it counts the wait that a stall
// imposes on the requests queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// drive runs s over conns connections. Connection w sends requests
// k = w, w+conns, ... in order, each once it is due and the previous
// one on that connection has completed; do performs request k on
// connection w and reports whether its outcome was correct. It returns
// the samples and the start the offsets count from.
func drive(s schedule, conns int, do func(w, k int) bool) ([]sample, time.Time) {
	out := make([]sample, s.n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < s.n; k += conns {
				due := s.due(k)
				sleepUntil(start, due)
				sent := time.Since(start)
				ok := do(w, k)
				out[k] = sample{due: due, sent: sent, done: time.Since(start), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out, start
}

// sleepUntil blocks until at offset from start. The runtime's timers
// round sub-millisecond sleeps of an idle process up to a millisecond,
// which would swamp a ~100µs request; a nanosleep on a thread whose
// timer slack is 1µs wakes within ~10µs.
func sleepUntil(start time.Time, at time.Duration) {
	d := at - time.Since(start)
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// phase summarizes one driven schedule.
type phase struct {
	rate    float64
	n       int
	failed  int
	lat     []float64 // due-time latency per request, ms, in request order
	lateMax time.Duration
	backlog int           // most requests due but not yet completed at any instant
	elapsed time.Duration // from the start to the last completion
}

// summarize reduces samples to a phase. Generator lateness is how long
// after it could have gone out a request was sent: after its due time
// or after the connection's previous request completed, whichever was
// later. Backlog is the most requests due and not yet completed at any
// instant.
func summarize(s schedule, conns int, samples []sample) phase {
	p := phase{rate: s.rate, n: len(samples), lat: make([]float64, len(samples))}
	done := make([]time.Duration, len(samples))
	for k, x := range samples {
		if !x.ok {
			p.failed++
		}
		p.lat[k] = float64(x.latency()) / 1e6
		ready := x.due
		if k >= conns && samples[k-conns].done > ready {
			ready = samples[k-conns].done
		}
		p.lateMax = max(p.lateMax, x.sent-ready)
		p.elapsed = max(p.elapsed, x.done)
		done[k] = x.done
	}
	// Walk completions in time order against the (sorted) due times.
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	completed := 0
	for k := range samples {
		for completed < len(done) && done[completed] <= samples[k].due {
			completed++
		}
		p.backlog = max(p.backlog, k+1-completed)
	}
	return p
}

// rateDone is the phase's completion rate: its requests over the time
// from the start to the last completion.
func (p phase) rateDone() float64 { return float64(p.n) / p.elapsed.Seconds() }

// windowN is the number of requests in one latency window: the
// fewest that leave ten samples beyond the 99th percentile.
const windowN = 1000

// windows returns the q-quantile latency of each window of windowN
// consecutive requests (one window if the phase is shorter).
func (p phase) windows(q float64) []float64 {
	n := max(1, len(p.lat)/windowN)
	size := len(p.lat) / n
	out := make([]float64, n)
	for i := range out {
		out[i] = quantile(p.lat[i*size:(i+1)*size], q)
	}
	return out
}

// windowed is the median over windows of the q-quantile latency, so a
// stall from a neighbour on the host moves one window, not the figure.
func (p phase) windowed(q float64) float64 { return median(p.windows(q)) }

// tailQ is the tail percentile the benchmark reports. A
// host stall of a few milliseconds, common on a shared two-vCPU
// machine, moves a window's 99th percentile by an order of magnitude
// and its 90th hardly at all.
const tailQ = 0.9

// quietQ is the quantile over a run's blocks that the end-to-end
// serving metrics report: the lower quartile of a lower-is-better
// figure, the upper of a higher-is-better one. On a shared two-vCPU
// host, steal and fsync stalls from the neighbours come in bursts of
// seconds that can cover a quarter of a run's blocks or more; the
// quietest quarter of the blocks still shows the program, and a change
// to the program moves every block, that quarter with them.
const quietQ = 0.25

// quietLow is the lower quartile of per-block values of a
// lower-is-better metric, quietHigh the upper quartile of a
// higher-is-better one.
func quietLow(xs []float64) float64  { return quantile(xs, quietQ) }
func quietHigh(xs []float64) float64 { return quantile(xs, 1-quietQ) }
