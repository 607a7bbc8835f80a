package main

import (
	"fmt"
	"math"
	"net"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// nap sleeps for about d, or less when a signal interrupts it (the Go
// runtime preempts threads with signals). time.Sleep parks on the
// runtime's netpoller, whose timeout has millisecond resolution on an idle
// P, which would quantize 1 ms epochs; a nanosleep syscall wakes within
// the kernel's timer slack (about 50 µs).
func nap(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the nap
}

// napUntil naps until t has passed.
func napUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		nap(d)
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs; NaN for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads process-wide Go runtime counters through
// runtime/metrics, which does not stop the world.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readCounters(samples []metrics.Sample) runtimeCounters {
	metrics.Read(samples)
	v := func(i int) uint64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	return runtimeCounters{v(0), v(1), v(2)}
}

func newSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	return s
}

// heapSampler records the heap's object bytes on every Sample call.
type heapSampler struct {
	metric  []metrics.Sample
	samples []heapSample
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{metric: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) Sample() {
	metrics.Read(h.metric)
	if h.metric[0].Value.Kind() == metrics.KindUint64 {
		h.samples = append(h.samples, heapSample{time.Now(), h.metric[0].Value.Uint64()})
	}
}

// peak returns the largest sample taken from from to to.
func (h *heapSampler) peak(from, to time.Time) uint64 {
	var p uint64
	for _, s := range h.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			p = max(p, s.bytes)
		}
	}
	return p
}

// wireListener records the connections it accepts so their kernel byte
// counters can be read. It returns the *net.TCPConn itself, so the
// transport keeps its vectored writes (net.Buffers only uses writev on the
// concrete type); a byte-counting wrapper would see none of those writes.
type wireListener struct {
	*net.TCPListener
	mu       sync.Mutex
	accepted []*net.TCPConn
}

func listenWire() (*wireListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &wireListener{TCPListener: ln.(*net.TCPListener)}, nil
}

func (l *wireListener) Accept() (net.Conn, error) {
	c, err := l.TCPListener.AcceptTCP()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.accepted = append(l.accepted, c)
	l.mu.Unlock()
	return c, nil
}

// wireBytes sums both directions of every accepted connection.
func (l *wireListener) wireBytes() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.accepted) == 0 {
		return 0, fmt.Errorf("no accepted connection")
	}
	var total uint64
	for _, c := range l.accepted {
		sent, recv, err := tcpBytes(c)
		if err != nil {
			return 0, err
		}
		total += sent + recv
	}
	return total, nil
}

// tcpBytes returns the bytes the kernel has seen acknowledged (sent) and
// received on c, from Linux's struct tcp_info (tcpi_bytes_acked at offset
// 120, tcpi_bytes_received at 128; kernel 4.1 and later).
func tcpBytes(c *net.TCPConn) (sent, recv uint64, err error) {
	raw, err := c.SyscallConn()
	if err != nil {
		return 0, 0, err
	}
	var buf [232]byte
	var serr error
	cerr := raw.Control(func(fd uintptr) {
		size := uint32(len(buf))
		_, _, errno := syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&size)), 0)
		if errno != 0 {
			serr = errno
		} else if size < 136 {
			serr = fmt.Errorf("tcp_info is %d bytes, too short for byte counters", size)
		}
	})
	if cerr != nil {
		return 0, 0, cerr
	}
	if serr != nil {
		return 0, 0, serr
	}
	le := func(b []byte) uint64 {
		var v uint64
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
	return le(buf[120:128]), le(buf[128:136]), nil
}
