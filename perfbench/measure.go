package main

import (
	"net"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

const mb = 1 << 20

// cpuNow returns the process's user + system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readHeap returns the cumulative heap bytes allocated and the live
// heap as of the last GC, without stopping the world.
func readHeap() (allocs, live uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// window measures one timed interval: wall, CPU, heap bytes allocated
// and the highest live heap seen by a sampling goroutine.
type window struct {
	start    time.Time
	cpu0     time.Duration
	allocs0  uint64
	peak     uint64
	stop     chan struct{}
	finished chan struct{}
}

// windowResult is a closed window's measurements.
type windowResult struct {
	wall, cpu           time.Duration
	allocMB, peakHeapMB float64
}

// openWindow collects garbage left by earlier set-up, then starts the
// clock and the live-heap sampler.
func openWindow() *window {
	runtime.GC()
	w := &window{stop: make(chan struct{}), finished: make(chan struct{})}
	var live uint64
	w.allocs0, live = readHeap()
	w.peak = live
	go w.sample()
	w.cpu0 = cpuNow()
	w.start = time.Now()
	return w
}

func (w *window) sample() {
	defer close(w.finished)
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if _, live := readHeap(); live > w.peak {
				w.peak = live
			}
		}
	}
}

// close stops the clock and the sampler and returns the measurements.
func (w *window) close() windowResult {
	wall := time.Since(w.start)
	cpu := cpuNow() - w.cpu0
	allocs, _ := readHeap()
	close(w.stop)
	<-w.finished
	if _, live := readHeap(); live > w.peak {
		w.peak = live
	}
	return windowResult{
		wall:       wall,
		cpu:        cpu,
		allocMB:    float64(allocs-w.allocs0) / mb,
		peakHeapMB: float64(w.peak) / mb,
	}
}

// host is printed with every result: tile counts and the syscall path
// depend on it, so only same-host A/Bs are comparable.
type host struct {
	Record     string `json:"record"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Arch       string `json:"arch"`
}

func hostRecord() host {
	h := host{
		Record:     "host",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Arch:       runtime.GOARCH,
	}
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		h.Kernel = utsString(u.Sysname[:]) + " " + utsString(u.Release[:])
	}
	return h
}

func utsString(cs []int8) string {
	b := make([]byte, 0, len(cs))
	for _, c := range cs {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// isLoopback reports whether a socket address is on the loopback
// interface.
func isLoopback(addr string) bool {
	ap, err := net.ResolveUDPAddr("udp", addr)
	return err == nil && ap.IP.IsLoopback()
}
