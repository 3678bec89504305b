package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"msync"
	"msync/internal/stats"
)

// meteredEnd wraps one end of the in-process pipe and counts and hashes the
// bytes its owner writes, independently of the protocol's own accounting.
type meteredEnd struct {
	io.ReadWriteCloser
	n int64
	h hash.Hash
}

func newMeteredEnd(rwc io.ReadWriteCloser) *meteredEnd {
	return &meteredEnd{ReadWriteCloser: rwc, h: sha256.New()}
}

func (m *meteredEnd) Write(p []byte) (int, error) {
	n, err := m.ReadWriteCloser.Write(p)
	m.n += int64(n)
	m.h.Write(p[:n])
	return n, err
}

// wireDigest identifies the exact byte streams of a session, both ways.
type wireDigest [2][sha256.Size]byte

// session is the outcome of one measured sync.
type session struct {
	wall   float64 // seconds, client construction to both ends done
	cpu    float64 // process user+sys seconds over the same interval
	result *msync.Result
	server *msync.Costs
	c2s    int64 // bytes the client wrote, counted on the pipe
	s2c    int64 // bytes the server wrote, counted on the pipe
	digest wireDigest
	rss    float64 // peak RSS in MB during the session (0 if untracked)
	alloc  uint64  // heap bytes allocated (only when memstats was requested)
	gcs    uint32  // GC cycles completed (only when memstats was requested)
}

// runSession runs one sync of a fresh client against srv over msync.Pipe.
// With memstats it also records allocation and GC counts, which costs two
// stop-the-world pauses outside the timed interval.
func runSession(srv *msync.Server, newClient func() (*msync.Client, error), memstats bool) (*session, error) {
	a, b := msync.Pipe()
	sEnd, cEnd := newMeteredEnd(a), newMeteredEnd(b)
	var ms0 runtime.MemStats
	if memstats {
		runtime.ReadMemStats(&ms0)
	}
	s := &session{}
	var srvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	rssReset := resetPeakRSS() == nil
	cpu0 := cpuSeconds()
	t0 := time.Now()
	go func() {
		defer wg.Done()
		s.server, srvErr = srv.Serve(sEnd)
		a.Close()
	}()
	cli, err := newClient()
	if err == nil {
		s.result, err = cli.Sync(cEnd)
	}
	b.Close()
	wg.Wait()
	s.wall = time.Since(t0).Seconds()
	s.cpu = cpuSeconds() - cpu0
	if rssReset {
		s.rss = peakRSSMB()
	}
	if memstats {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.alloc = ms1.TotalAlloc - ms0.TotalAlloc
		s.gcs = ms1.NumGC - ms0.NumGC
	}
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if srvErr != nil {
		return nil, fmt.Errorf("server: %w", srvErr)
	}
	s.c2s, s.s2c = cEnd.n, sEnd.n
	copy(s.digest[0][:], cEnd.h.Sum(nil))
	copy(s.digest[1][:], sEnd.h.Sum(nil))
	return s, nil
}

// check verifies a session's outcome: the result is exactly want.
func (s *session) check(want map[string][]byte) error {
	got := s.result.Files
	if len(got) != len(want) {
		return fmt.Errorf("result has %d files, want %d", len(got), len(want))
	}
	for p, data := range want {
		if g, ok := got[p]; !ok || !bytes.Equal(g, data) {
			return fmt.Errorf("result differs from the expected collection at %q", p)
		}
	}
	return nil
}

// costsGap is, for each end, the bytes counted on the pipe minus that end's
// Costs direction totals. Both ends' accounting should match the pipe
// exactly; README.md (Correctness) explains the gap the tree workloads show.
type costsGap struct {
	Server [2]int64 `json:"server_c2s_s2c"`
	Client [2]int64 `json:"client_c2s_s2c"`
}

func (s *session) costsGap() costsGap {
	gap := func(c *msync.Costs) [2]int64 {
		return [2]int64{s.c2s - c.DirTotal(stats.C2S), s.s2c - c.DirTotal(stats.S2C)}
	}
	return costsGap{Server: gap(s.server), Client: gap(s.result.Costs)}
}

func (s *session) wireBytes() int64 { return s.c2s + s.s2c }

// cpuSeconds is the process's user+system CPU time so far, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// resetPeakRSS restarts the kernel's peak-RSS tracking for this process
// (Linux: writing 5 to /proc/self/clear_refs resets VmHWM), so peakRSSMB
// then reports the peak since the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MB: VmHWM from
// /proc/self/status, or the whole-run getrusage maximum where that is
// unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
