package msync_test

// Integration tests for the observability layer: span/cost agreement, the
// "tracing never changes the wire" invariant, and metrics aggregation under
// concurrency (run with -race).

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"

	"msync"
	"msync/internal/obs"
	"msync/internal/stats"
)

// obsCorpus builds a two-file collection pair with one edited file (big
// enough to need map rounds and a delta) and one unchanged file.
func obsCorpus() (oldFiles, newFiles map[string][]byte) {
	edited := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog; "), 400)
	old := append([]byte(nil), edited...)
	cur := append([]byte(nil), edited...)
	copy(cur[5000:], []byte("EDITED REGION HERE"))
	oldFiles = map[string][]byte{"changed.txt": old, "same.txt": []byte("stable content")}
	newFiles = map[string][]byte{"changed.txt": cur, "same.txt": []byte("stable content")}
	return oldFiles, newFiles
}

// runTracedSync synchronizes the obsCorpus pair over an in-process pipe with
// the given options attached to both endpoints.
func runTracedSync(t *testing.T, srvOpts, cliOpts []msync.Option) (*msync.Result, *msync.Costs) {
	t.Helper()
	oldFiles, newFiles := obsCorpus()
	srv, err := msync.NewServer(newFiles, msync.DefaultConfig(), srvOpts...)
	if err != nil {
		t.Fatal(err)
	}
	cl := msync.NewClient(oldFiles, cliOpts...)

	sEnd, cEnd := msync.Pipe()
	type serveDone struct {
		costs *msync.Costs
		err   error
	}
	done := make(chan serveDone, 1)
	go func() {
		defer sEnd.Close()
		costs, err := srv.Serve(sEnd)
		done <- serveDone{costs, err}
	}()
	res, err := cl.Sync(cEnd)
	cEnd.Close()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	sd := <-done
	if sd.err != nil {
		t.Fatalf("server: %v", sd.err)
	}
	return res, sd.costs
}

// sideSums adds up the span bytes of one side's phase events, checking along
// the way that the closing session event repeats the same totals.
func sideSums(t *testing.T, events []msync.TraceEvent, side string) (up, down int64, phases map[string]int) {
	t.Helper()
	phases = map[string]int{}
	var sessUp, sessDown int64
	for _, e := range events {
		if e.Side != side {
			continue
		}
		phases[e.Phase]++
		if e.Phase == obs.PhaseSession {
			sessUp, sessDown = e.BytesUp, e.BytesDown
			continue
		}
		up += e.BytesUp
		down += e.BytesDown
	}
	if phases[obs.PhaseSession] != 1 {
		t.Fatalf("%s emitted %d session summaries, want 1 (%v)", side, phases[obs.PhaseSession], phases)
	}
	if sessUp != up || sessDown != down {
		t.Fatalf("%s session summary (%d up, %d down) disagrees with its spans (%d up, %d down)",
			side, sessUp, sessDown, up, down)
	}
	return up, down, phases
}

// TestTracedSyncSpansMatchCosts pins the core tracing guarantee: with a ring
// tracer attached to both sides of a two-file sync, each side's summed span
// bytes reproduce its stats.Costs wire totals exactly.
func TestTracedSyncSpansMatchCosts(t *testing.T) {
	ring := msync.NewRingTracer(128)
	res, srvCosts := runTracedSync(t,
		[]msync.Option{msync.WithTracer(ring)},
		[]msync.Option{msync.WithTracer(ring)})

	events := ring.Events()
	for side, costs := range map[string]*msync.Costs{"client": res.Costs, "server": srvCosts} {
		up, down, phases := sideSums(t, events, side)
		if want := costs.DirTotal(stats.C2S); up != want {
			t.Errorf("%s spans sum to %d bytes up, costs say %d", side, up, want)
		}
		if want := costs.DirTotal(stats.S2C); down != want {
			t.Errorf("%s spans sum to %d bytes down, costs say %d", side, down, want)
		}
		for _, phase := range []string{obs.PhaseHandshake, obs.PhaseRound, obs.PhaseDelta} {
			if phases[phase] == 0 {
				t.Errorf("%s emitted no %s span: %v", side, phase, phases)
			}
		}
	}
	if string(res.Files["changed.txt"]) == "" || !bytes.Equal(res.Files["same.txt"], []byte("stable content")) {
		t.Fatal("traced sync produced a wrong result")
	}
}

// recordRW copies everything written through one pipe end so two runs can be
// compared byte for byte.
type recordRW struct {
	io.ReadWriteCloser
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordRW) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.buf.Write(p)
	r.mu.Unlock()
	return r.ReadWriteCloser.Write(p)
}

// TestTracingDoesNotChangeWireBytes runs the same sync untraced and fully
// instrumented (tracer + logger + metrics) and requires both directions'
// byte streams to match exactly.
func TestTracingDoesNotChangeWireBytes(t *testing.T) {
	record := func(opts []msync.Option) (c2s, s2c []byte) {
		t.Helper()
		oldFiles, newFiles := obsCorpus()
		srv, err := msync.NewServer(newFiles, msync.DefaultConfig(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		cl := msync.NewClient(oldFiles, opts...)
		sEnd, cEnd := msync.Pipe()
		sRec := &recordRW{ReadWriteCloser: sEnd.(io.ReadWriteCloser)}
		cRec := &recordRW{ReadWriteCloser: cEnd.(io.ReadWriteCloser)}
		errc := make(chan error, 1)
		go func() {
			defer sEnd.Close()
			_, err := srv.Serve(sRec)
			errc <- err
		}()
		if _, err := cl.Sync(cRec); err != nil {
			t.Fatalf("client: %v", err)
		}
		cEnd.Close()
		if err := <-errc; err != nil {
			t.Fatalf("server: %v", err)
		}
		return cRec.buf.Bytes(), sRec.buf.Bytes()
	}

	plainC2S, plainS2C := record(nil)
	tracedC2S, tracedS2C := record([]msync.Option{
		msync.WithTracer(msync.NewRingTracer(128)),
		msync.WithLogger(obs.NopLogger()),
		msync.WithMetrics(msync.NewMetricsRegistry()),
	})
	if !bytes.Equal(plainC2S, tracedC2S) {
		t.Errorf("client->server stream changed under tracing: %d vs %d bytes", len(plainC2S), len(tracedC2S))
	}
	if !bytes.Equal(plainS2C, tracedS2C) {
		t.Errorf("server->client stream changed under tracing: %d vs %d bytes", len(plainS2C), len(tracedS2C))
	}
}

// TestConcurrentSyncMetricsMatchSerial stresses the registry and ring tracer
// under -race: n identical collection syncs run serially and then in
// parallel, and every deterministic counter must come out the same.
func TestConcurrentSyncMetricsMatchSerial(t *testing.T) {
	const n = 8
	run := func(parallel bool) (*msync.MetricsRegistry, *msync.RingTracer) {
		t.Helper()
		reg := msync.NewMetricsRegistry()
		ring := msync.NewRingTracer(64 * n)
		opts := []msync.Option{msync.WithMetrics(reg), msync.WithTracer(ring)}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			do := func() {
				defer wg.Done()
				runTracedSync(t, opts, opts)
			}
			wg.Add(1)
			if parallel {
				go do()
			} else {
				do()
			}
		}
		wg.Wait()
		return reg, ring
	}

	serialReg, serialRing := run(false)
	parReg, parRing := run(true)

	serial, par := serialReg.Snapshot(), parReg.Snapshot()
	if !reflect.DeepEqual(serial.Counters, par.Counters) {
		t.Errorf("counters diverge:\nserial: %v\nparallel: %v", serial.Counters, par.Counters)
	}
	if got := par.Counters[obs.MetricSessions]; got != 2*n {
		t.Errorf("%s = %d, want %d (client and server sessions)", obs.MetricSessions, got, 2*n)
	}
	if got := par.Gauges[obs.MetricSessionsActive]; got != 0 {
		t.Errorf("%s = %d after all sessions ended, want 0", obs.MetricSessionsActive, got)
	}
	if s, p := serialRing.Total(), parRing.Total(); s != p {
		t.Errorf("event counts diverge: serial %d, parallel %d", s, p)
	}
}

// TestPushRecordsSessionMetrics: Push is PushContext with a background
// context, so a push counts as a session in the pusher's metrics registry.
func TestPushRecordsSessionMetrics(t *testing.T) {
	oldFiles, newFiles := obsCorpus()
	reg := msync.NewMetricsRegistry()
	pusher, err := msync.NewServer(newFiles, msync.DefaultConfig(), msync.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	replica, err := msync.NewServer(oldFiles, msync.DefaultConfig(), msync.WithPush(nil))
	if err != nil {
		t.Fatal(err)
	}
	rEnd, pEnd := msync.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer rEnd.Close()
		_, err := replica.Serve(rEnd)
		errc <- err
	}()
	_, err = pusher.Push(pEnd)
	pEnd.Close()
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("replica: %v", err)
	}
	if got := reg.Snapshot().Counters[obs.MetricSessions]; got != 1 {
		t.Fatalf("%s = %d after one Push, want 1", obs.MetricSessions, got)
	}
}
