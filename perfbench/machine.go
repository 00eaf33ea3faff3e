package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp describes the machine a run measured on, so every number
// names its hardware and a noisy run reads as noisy.
func stamp(dir string) string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fmt.Sprintf("numcpu=%d gomaxprocs=%d go=%s kernel=%s fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		strings.TrimSpace(string(kernel)), fsType(dir))
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the aggregate steal and total jiffies from
// /proc/stat; both are zero where the file is unavailable.
func stealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// probe samples process-level costs over a measured phase: CPU time,
// GC pause time, host steal and the peak Go heap, the last polled every
// few milliseconds.
type probe struct {
	cpu0          time.Duration
	pause0        uint64
	steal0, tot0  uint64
	stop_, done   chan struct{}
	peakHeapBytes uint64 // written by the sampler until done closes
}

type probeStats struct {
	cpu        time.Duration
	gcPause    time.Duration
	steal      float64
	peakHeapMB float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// startProbe starts measuring a phase. It collects garbage first, so
// the phase's peak heap does not depend on when the leftovers of
// set-up happen to be collected.
func startProbe() *probe {
	runtime.GC()
	p := &probe{stop_: make(chan struct{}), done: make(chan struct{})}
	p.pause0 = gcPauseNs()
	p.steal0, p.tot0 = stealTicks()
	p.cpu0 = cpuTime()
	p.peakHeapBytes = heapBytes()
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop_:
				return
			case <-t.C:
				if b := heapBytes(); b > p.peakHeapBytes {
					p.peakHeapBytes = b
				}
			}
		}
	}()
	return p
}

// stop ends the phase and returns its costs.
func (p *probe) stop() probeStats {
	cpu := cpuTime() - p.cpu0
	close(p.stop_)
	<-p.done
	st := probeStats{cpu: cpu, gcPause: time.Duration(gcPauseNs() - p.pause0)}
	if s, t := stealTicks(); t > p.tot0 {
		st.steal = float64(s-p.steal0) / float64(t-p.tot0)
	}
	if b := heapBytes(); b > p.peakHeapBytes {
		p.peakHeapBytes = b
	}
	st.peakHeapMB = float64(p.peakHeapBytes) / (1 << 20)
	return st
}
