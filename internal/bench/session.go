package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"msync/internal/collection"
	"msync/internal/stats"
	"msync/internal/transport"
)

// sessionRun is one in-process collection session as the runner saw it.
type sessionRun struct {
	client, server *stats.Costs
	result         *collection.Result
	secs           float64 // pipe open until both ends returned
	c2s, s2c       []byte  // every byte each direction carried
}

// wire is the session's total bytes on the pipe, both directions.
func (r *sessionRun) wire() int64 { return int64(len(r.c2s) + len(r.s2c)) }

func (r *sessionRun) seconds() float64 { return r.secs }

// runSession runs one pull session of cli against srv over an in-process
// pipe, recording both directions. It fails the run when either end's Costs
// differs from the bytes the pipe carried in a direction, or when the ends
// disagree on roundtrips, so every report's byte and roundtrip columns are
// wire truth whichever end they are read from.
func runSession(srv *collection.Server, cli *collection.Client) (*sessionRun, error) {
	ctx := context.Background()
	start := time.Now()
	a, b := transport.Pipe()
	sEnd := &recordEnd{ReadWriteCloser: a}
	cEnd := &recordEnd{ReadWriteCloser: b}
	type served struct {
		costs *stats.Costs
		err   error
	}
	done := make(chan served, 1)
	go func() {
		defer a.Close()
		costs, err := srv.ServeContext(ctx, sEnd)
		done <- served{costs, err}
	}()
	res, err := cli.SyncContext(ctx, cEnd)
	b.Close() // unblocks the server if the client failed mid-session
	s := <-done
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if s.err != nil {
		return nil, fmt.Errorf("server: %w", s.err)
	}
	r := &sessionRun{
		client: res.Costs,
		server: s.costs,
		result: res,
		secs:   time.Since(start).Seconds(),
		c2s:    cEnd.buf.Bytes(),
		s2c:    sEnd.buf.Bytes(),
	}
	for _, end := range []struct {
		name  string
		costs *stats.Costs
	}{{"client", r.client}, {"server", r.server}} {
		up, down := end.costs.DirTotal(stats.C2S), end.costs.DirTotal(stats.S2C)
		if up != int64(len(r.c2s)) || down != int64(len(r.s2c)) {
			return nil, fmt.Errorf("%s Costs c2s/s2c %d/%d, pipe carried %d/%d",
				end.name, up, down, len(r.c2s), len(r.s2c))
		}
	}
	if r.client.Roundtrips != r.server.Roundtrips {
		return nil, fmt.Errorf("client counted %d roundtrips, server %d",
			r.client.Roundtrips, r.server.Roundtrips)
	}
	return r, nil
}

// recordEnd wraps one pipe end, copying everything written through it (one
// direction of the session) so runs can be metered and compared byte for
// byte.
type recordEnd struct {
	io.ReadWriteCloser
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordEnd) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.buf.Write(p)
	r.mu.Unlock()
	return r.ReadWriteCloser.Write(p)
}

// bestOf runs an arm reps times and keeps the fastest run after the first,
// which only warms the OS page cache.
func bestOf[R interface{ seconds() float64 }](reps int, run func(rep int) (R, error)) (R, error) {
	var best R
	for rep := 0; rep < reps; rep++ {
		r, err := run(rep)
		if err != nil {
			var zero R
			return zero, err
		}
		if rep == 1 || (rep > 1 && r.seconds() < best.seconds()) {
			best = r
		}
	}
	return best, nil
}
