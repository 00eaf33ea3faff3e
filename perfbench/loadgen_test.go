package main

import (
	"math"
	"testing"
	"time"
)

func TestScheduleDue(t *testing.T) {
	s := schedule{rate: 1000, n: 3000}
	for k, want := range map[int]time.Duration{0: 0, 1: time.Millisecond, 1000: time.Second, 2500: 2500 * time.Millisecond} {
		if got := s.due(k); got != want {
			t.Errorf("due(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestSummarizeLatenessAndBacklog(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	s := schedule{rate: 1000, n: 4}
	// One connection: request 0 stalls for 5 ms, so 1..3 queue behind
	// it. Request 1 goes out 0.2 ms after request 0 completed, request 2
	// 0.5 ms after it was due and the connection was free.
	samples := []sample{
		{due: 0, sent: 0, done: ms(5), ok: true},
		{due: ms(1), sent: ms(5.2), done: ms(5.5), ok: true},
		{due: ms(2), sent: ms(5.5), done: ms(6), ok: false},
		{due: ms(7), sent: ms(7.5), done: ms(8), ok: true},
	}
	p := summarize(s, 1, samples)
	if p.failed != 1 {
		t.Errorf("failed = %d, want 1", p.failed)
	}
	if p.lateMax != ms(0.5) {
		t.Errorf("lateMax = %v, want 0.5ms", p.lateMax)
	}
	if p.backlog != 3 { // requests 0, 1 and 2 due, none done at 2 ms
		t.Errorf("backlog = %d, want 3", p.backlog)
	}
	if p.elapsed != ms(8) {
		t.Errorf("elapsed = %v, want 8ms (the last completion)", p.elapsed)
	}
	if got, want := p.lat[1], 4.5; got != want {
		t.Errorf("latency of request 1 = %v ms, want %v (timed from its due time)", got, want)
	}
}

func TestDriveDetectsGrowingBacklog(t *testing.T) {
	// A connection that takes 2 ms per request cannot keep up with
	// 1000/s: the backlog grows, and the late requests complete long
	// after they were due.
	slow := schedule{rate: 1000, n: 100}
	samples, _ := drive(slow, 1, func(w, k int) bool { time.Sleep(2 * time.Millisecond); return true })
	p := summarize(slow, 1, samples)
	if last := p.lat[len(p.lat)-1]; last < 50 || p.backlog < 20 {
		t.Errorf("overloaded phase: last latency %.1f ms, backlog %d", last, p.backlog)
	}
	// Two fast connections at 200/s keep up.
	fast := schedule{rate: 200, n: 40}
	samples, _ = drive(fast, 2, func(w, k int) bool {
		if k%2 != w {
			t.Errorf("request %d on connection %d", k, w)
		}
		return true
	})
	p = summarize(fast, 2, samples)
	if p.windowed(0.99) > 20 || p.backlog > 2 {
		t.Errorf("light phase: backlog %d, p99 %.3f ms", p.backlog, p.windowed(0.99))
	}
	for k, x := range samples {
		if x.sent < x.due {
			t.Fatalf("request %d sent %v before it was due at %v", k, x.sent, x.due)
		}
	}
}

func TestWindowedIgnoresOneBadWindow(t *testing.T) {
	p := phase{lat: make([]float64, 5*windowN)}
	for i := range p.lat {
		p.lat[i] = 1
	}
	for i := 0; i < 100; i++ {
		p.lat[2*windowN+i] = 50 // a stall inside the third window
	}
	if got := p.windowed(0.99); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	if got := quantile(p.lat, 0.99); got != 50 {
		t.Errorf("whole-phase p99 = %v, want 50 (the stall is 2%% of the phase)", got)
	}
}

func TestClosedLoop(t *testing.T) {
	// At an infinite rate every request is due at the start, so each
	// connection sends back to back: 2 connections at 1 ms a request
	// complete 40 requests in about 20 ms, not on any schedule.
	s := schedule{rate: math.Inf(1), n: 40}
	if s.due(0) != 0 || s.due(39) != 0 {
		t.Fatalf("closed loop: due %v and %v, want 0", s.due(0), s.due(39))
	}
	samples, _ := drive(s, 2, func(w, k int) bool { time.Sleep(time.Millisecond); return true })
	p := summarize(s, 2, samples)
	for k := 2; k < len(samples); k++ {
		if prev := samples[k-2].done; samples[k].sent < prev {
			t.Fatalf("request %d sent at %v, before its connection's previous one completed at %v", k, samples[k].sent, prev)
		}
	}
	if r := p.rateDone(); r < 200 || r > 2000 {
		t.Errorf("completion rate %.0f/s, want about 2000/s less sleep overshoot", r)
	}
}

func TestQuietQuartiles(t *testing.T) {
	// Eight blocks, three hit by a stall: the quietest quarter of a
	// lower-is-better figure and of a higher-is-better one ignore them.
	lat := []float64{1.0, 1.1, 9, 1.2, 1.05, 30, 1.15, 12}
	if got := quietLow(lat); got != 1.05 {
		t.Errorf("quietLow = %v, want 1.05", got)
	}
	rate := []float64{1000, 1100, 200, 1050, 90, 1020, 300, 980}
	if got := quietHigh(rate); got != 1020 {
		t.Errorf("quietHigh = %v, want 1020", got)
	}
	// A change that slows every block by 10% moves the figure by 10%.
	for i := range lat {
		lat[i] *= 1.1
	}
	if got := quietLow(lat); math.Abs(got-1.155) > 1e-9 {
		t.Errorf("quietLow after a 10%% slowdown = %v, want 1.155", got)
	}
}
