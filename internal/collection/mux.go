package collection

import (
	"context"
	"errors"
	"fmt"
	"time"

	"msync/internal/core"
	"msync/internal/delta"
	"msync/internal/obs"
	"msync/internal/pool"
	"msync/internal/stats"
	"msync/internal/transport"
	"msync/internal/wire"
)

// The per-file phases of a session (map rounds, verification batches, delta,
// ACK, full-transfer fallbacks) run on one scheduler per side. The sync files
// are partitioned into streams, each a contiguous file range walking the
// phase sequence with engine indexes local to its range, and every roundtrip
// advances all unfinished streams at once: the server sends one frame per
// unfinished stream (ROUND_HASHES, CONFIRM, DELTA, or FULL) and the client
// answers each but FULL (ROUND_REPLY or ACK), so a final all-FULL batch goes
// unanswered.
//
// Stream multiplexing (hello extension 2, granted by MUX_ACK) frames each
// batch as CYCLE(n) followed by n STREAM frames. A stream that finished its
// map rounds then ships its delta (and any fallback) while slower streams are
// still mapping, so the session's wall clock is governed by the deepest
// file's round count, not the sum of phase tails, and tiny files batch their
// single rounds into roundtrips they'd otherwise each pay for.
//
// Without MUX_ACK the session is the one-stream schedule over every engine
// and its frames go out bare: the lockstep protocol's exact bytes. A journal
// hit is that schedule with zero engines, whose ACK ordinals index the
// journal files.

// muxSessionCap bounds the granted stream count per session. The wire cap
// (wire.MaxStreams) guards parsing; this is the scheduling policy: past a few
// dozen streams the per-cycle framing overhead outweighs any extra overlap.
const muxSessionCap = 64

// muxPhase maps an inner frame type to the cost phase its stream-frame bytes
// are accounted under, mirroring the legacy session's attribution.
func muxPhase(inner byte) stats.Phase {
	switch inner {
	case wire.FrameDelta:
		return stats.PhaseDelta
	case wire.FrameFull:
		return stats.PhaseFull
	case wire.FrameAck:
		return stats.PhaseControl
	default: // ROUND_HASHES, CONFIRM, ROUND_REPLY
		return stats.PhaseMap
	}
}

// muxPartition splits the sync files into at most `width` contiguous streams,
// balanced by content size so no stream dominates the session's cycle count.
// Returns nil (no multiplexing) when width < 1 or there are no files.
func muxPartition(files []syncFile, width int) []int {
	if width < 1 || len(files) == 0 {
		return nil
	}
	s := width
	if s > muxSessionCap {
		s = muxSessionCap
	}
	if s > len(files) {
		s = len(files)
	}
	total := 0
	for i := range files {
		total += len(files[i].data)
	}
	counts := make([]int, s)
	i, cum := 0, 0
	for k := 0; k < s; k++ {
		maxEnd := len(files) - (s - 1 - k) // leave one file per later stream
		end := i
		thresh := total * (k + 1) / s
		for end < maxEnd && (end == i || cum < thresh) {
			cum += len(files[end].data)
			end++
		}
		counts[k] = end - i
		i = end
	}
	counts[s-1] += len(files) - i
	return counts
}

// streamAcct accumulates one stream's wire accounting. During a session each
// stream's handler is the only writer of its own accumulator (on the client
// the handlers run concurrently — on different streams); the scheduler
// goroutine merges the result into the session Costs once the stream closes,
// so the shared Costs is never touched concurrently.
type streamAcct struct {
	costs    stats.Costs
	frames   int
	up, down int64
	start    time.Time
}

// add accounts one stream frame (payload plus framing, like addCost).
func (a *streamAcct) add(d stats.Direction, p stats.Phase, payload int) {
	addCost(&a.costs, d, p, payload)
	a.frames++
	n := int64(payload + frameOverhead(payload))
	if d == stats.C2S {
		a.up += n
	} else {
		a.down += n
	}
}

// innerFrame is one stream's frame in a batch.
type innerFrame struct {
	acct    *streamAcct
	id      int
	inner   byte
	payload []byte
}

// sendBatch writes and flushes one side's batch of stream frames in d's
// direction. Multiplexed, a CYCLE frame opens the batch and each inner frame
// travels in a STREAM frame accounted to its stream; otherwise the one
// stream's frame goes out bare, accounted to the session and its per-phase
// spans.
func sendBatch(fw *wire.FrameWriter, wrapped bool, d stats.Direction, batch []innerFrame, costs *stats.Costs, st *sessTrace) error {
	if !wrapped {
		for _, f := range batch {
			if err := fw.WriteFrame(f.inner, f.payload); err != nil {
				return err
			}
			st.cost(costs, d, muxPhase(f.inner), len(f.payload))
		}
		return fw.Flush()
	}
	cp := wire.EncodeCycle(len(batch))
	if err := fw.WriteFrame(wire.FrameCycle, cp); err != nil {
		return err
	}
	st.cost(costs, d, stats.PhaseControl, len(cp))
	sfb := wire.GetBuffer(4096)
	defer wire.PutBuffer(sfb)
	for _, f := range batch {
		sfb.Reset()
		wire.AppendStreamFrame(sfb, f.id, f.inner, f.payload)
		sp := sfb.Build()
		if err := fw.WriteFrame(wire.FrameStream, sp); err != nil {
			return err
		}
		f.acct.add(d, muxPhase(f.inner), len(sp))
	}
	return fw.Flush()
}

// Server-side stream states. A stream always has exactly one frame to send
// per server cycle until it is done, and every transition happens either
// while building and sending a cycle (srRounds→delta emission, srFull→done)
// or while absorbing the client's reply cycle (everything else), so no
// stream is ever left in srAwaitAck when the next cycle is built.
const (
	srRounds   = iota // emitting map-construction rounds
	srConfirm         // emitting verification batches
	srAwaitAck        // delta sent, waiting for the stream's ACK
	srFull            // ACK reported failures; send full transfers next cycle
	srDone
)

// serverStream is one stream of a serving session: a contiguous slice of the
// session's sync files plus the state machine walking them through the
// per-file phase sequence. On a journal hit the one stream runs no engines
// and its ACK ordinals index journal instead, answered from versions.
type serverStream struct {
	streamAcct
	id       int
	files    []syncFile
	journal  []journalFile
	versions VersionedSource
	state    int
	active   []int    // stream-local indexes of the engines still mapping
	pending  []int    // stream-local indexes awaiting verification batches
	failed   []uint64 // ACK indexes needing full transfers
}

// newServerStreams splits engines into contiguous streams of counts[k] files.
func newServerStreams(engines []syncFile, counts []int) []*serverStream {
	streams := make([]*serverStream, len(counts))
	now := time.Now()
	off := 0
	for k, c := range counts {
		streams[k] = &serverStream{id: k, files: engines[off : off+c]}
		streams[k].start = now
		off += c
	}
	return streams
}

// acked is the size of the stream's ACK index space.
func (stm *serverStream) acked() int {
	if stm.journal != nil {
		return len(stm.journal)
	}
	return len(stm.files)
}

// next decides the stream's next frame: ROUND_HASHES while any engine is
// still mapping (CONFIRM while verification batches are pending), then its
// DELTA, then FULL if the ACK listed failures.
func (stm *serverStream) next() byte {
	switch stm.state {
	case srConfirm:
		return wire.FrameConfirm
	case srFull:
		return wire.FrameFull
	}
	stm.active = stm.active[:0]
	for i := range stm.files {
		if stm.files[i].engine.Active() {
			stm.active = append(stm.active, i)
		}
	}
	if len(stm.active) == 0 {
		return wire.FrameDelta
	}
	return wire.FrameRoundHashes
}

// emit builds the stream's next frame of type inner (as decided by next).
// Engine work fans out across the server's workers.
func (s *Server) emit(stm *serverStream, inner byte) ([]byte, error) {
	b := wire.NewBuffer(1024)
	switch inner {
	case wire.FrameRoundHashes:
		sections := make([][]byte, len(stm.active))
		pool.Do(s.cfg.Workers, len(stm.active), func(k int) error {
			sections[k] = stm.files[stm.active[k]].engine.EmitHashes()
			return nil
		})
		b.Uvarint(uint64(len(stm.active)))
		for k, i := range stm.active {
			b.Uvarint(uint64(i))
			b.Bytes(sections[k])
		}
	case wire.FrameConfirm:
		b.Uvarint(uint64(len(stm.pending)))
		for _, i := range stm.pending {
			b.Uvarint(uint64(i))
			b.Bytes(stm.files[i].engine.EmitConfirm())
		}
	case wire.FrameDelta:
		// Every map is built: this stream moves on to its delta while other
		// streams keep running rounds in the same cycle — the overlap
		// multiplexing exists for.
		sections := make([][]byte, len(stm.files))
		pool.Do(s.cfg.Workers, len(stm.files), func(i int) error {
			sections[i] = stm.files[i].engine.EmitDelta()
			return nil
		})
		b.Uvarint(uint64(len(stm.files)))
		for i := range sections {
			b.Bytes(sections[i])
		}
		stm.state = srAwaitAck
	case wire.FrameFull:
		b.Uvarint(uint64(len(stm.failed)))
		for _, idx := range stm.failed {
			// The exact bytes the engine synced from, so a full transfer is
			// consistent with the session even if the source changed
			// underneath; for a journal file, its stored version content.
			var data []byte
			var err error
			if stm.journal == nil {
				data = stm.files[idx].data
			} else if data, err = stm.versions.VersionContent(stm.journal[idx].sum); err != nil {
				return nil, fmt.Errorf("collection: journal fallback %q: %w", stm.journal[idx].path, err)
			}
			b.Uvarint(idx)
			b.Bytes(delta.Compress(data))
			stm.costs.FilesFull++
		}
	}
	return b.Build(), nil
}

// absorb advances the stream on the client's reply frame.
func (s *Server) absorb(stm *serverStream, inner byte, payload []byte) error {
	switch {
	case inner == wire.FrameRoundReply && stm.state == srRounds:
		pending, err := s.absorbReplies(stm.files, payload, true)
		if err != nil {
			return err
		}
		if len(pending) > 0 {
			stm.pending = pending
			stm.state = srConfirm
		}
	case inner == wire.FrameRoundReply && stm.state == srConfirm:
		pending, err := s.absorbReplies(stm.files, payload, false)
		if err != nil {
			return err
		}
		stm.pending = pending
		if len(pending) == 0 {
			stm.state = srRounds
		}
	case inner == wire.FrameAck && stm.state == srAwaitAck:
		failed, err := parseAck(payload, stm.acked())
		if err != nil {
			return err
		}
		stm.failed = failed
		stm.state = srFull
		if len(failed) == 0 {
			stm.state = srDone
		}
	default:
		return fmt.Errorf("collection: unexpected %s for stream %d", wire.FrameName(inner), stm.id)
	}
	return nil
}

// indexed is one entry of a per-file frame (ROUND_HASHES, CONFIRM,
// ROUND_REPLY, FULL): a file index local to the stream and its section.
type indexed struct {
	idx     int
	section []byte
}

// parseIndexed decodes a per-file frame's count-prefixed entries, rejecting
// file indexes outside [0, n).
func parseIndexed(payload []byte, n int) ([]indexed, error) {
	p := wire.NewParser(payload)
	count, err := p.Uvarint()
	if err != nil {
		return nil, err
	}
	// Every entry takes at least two bytes, so the count a peer declares
	// cannot size an allocation beyond the payload it sent.
	out := make([]indexed, 0, min(count, uint64(p.Remaining()/2)))
	for k := uint64(0); k < count; k++ {
		idx, err := p.Uvarint()
		if err != nil {
			return nil, err
		}
		if idx >= uint64(n) {
			return nil, fmt.Errorf("collection: bad file index %d", idx)
		}
		section, err := p.Bytes()
		if err != nil {
			return nil, err
		}
		out = append(out, indexed{int(idx), section})
	}
	return out, nil
}

// parseAck decodes an ACK payload into stream-local failed indexes, bounds-
// checked against the stream's ACK index space.
func parseAck(payload []byte, nFiles int) ([]uint64, error) {
	p := wire.NewParser(payload)
	nf, err := p.Uvarint()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, min(nf, uint64(p.Remaining())))
	for k := uint64(0); k < nf; k++ {
		idx, err := p.Uvarint()
		if err != nil || int(idx) >= nFiles {
			return nil, fmt.Errorf("collection: bad ack index")
		}
		out = append(out, idx)
	}
	return out, nil
}

// serveStreams runs the per-file phases of a serving session until every
// stream has closed. wrapped means MUX_ACK granted the streams; otherwise
// streams holds the one bare stream of a lockstep session.
func (s *Server) serveStreams(ctx context.Context, sess *transport.Session, fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, fail func(error) (*stats.Costs, error), streams []*serverStream, wrapped bool, st *sessTrace) (*stats.Costs, error) {
	live := len(streams)
	gauge := new(obs.Gauge) // a lockstep session is not counted as a stream
	var sd *transport.StreamDeadlines
	if wrapped {
		gauge = s.Metrics.Gauge(obs.MetricStreamsActive)
		if sess != nil && s.RoundTimeout > 0 {
			sd = transport.NewStreamDeadlines()
			defer sess.SetPhaseDeadline(time.Time{})
		}
	}
	gauge.Add(int64(live))
	defer func() { gauge.Add(-int64(live)) }()

	// closeStream harvests the stream's engine counters, merges its private
	// Costs into the session's, and emits its span. Scheduler goroutine only.
	closeStream := func(stm *serverStream) {
		for i := range stm.files {
			e := stm.files[i].engine
			stm.costs.HashesSent += e.HashesSent
			stm.costs.CandidatesFound += e.CandidatesSeen
			stm.costs.MatchesConfirmed += e.MatchesConfirmed
			stm.costs.BlockHashesComputed += e.BlockHashesComputed
			stm.costs.BytesHashed += e.BytesHashed
			stm.costs.CDCChunks += e.CDCChunks
		}
		stm.costs.FalseCandidates = stm.costs.CandidatesFound - stm.costs.MatchesConfirmed
		costs.Merge(&stm.costs)
		if wrapped {
			st.stream(stm.id, stm.frames, stm.up, stm.down, stm.start)
		}
		stm.state = srDone
		if sd != nil {
			sd.Drop(stm.id)
		}
		gauge.Dec()
		live--
	}

	cycle := 0
	for live > 0 {
		if err := ctx.Err(); err != nil {
			return costs, fmt.Errorf("collection: session cancelled: %w", err)
		}
		if wrapped {
			cycle++
			st.begin(obs.PhaseRound, cycle)
		}

		// Build this cycle: one frame per unfinished stream.
		var batch []innerFrame
		expect := 0 // frames that will be answered in the client's reply cycle
		roundsInCycle := 0
		for _, stm := range streams {
			if stm.state == srDone {
				continue
			}
			inner := stm.next()
			if !wrapped {
				st.lockstep(inner)
			}
			payload, err := s.emit(stm, inner)
			if err != nil {
				return fail(err)
			}
			batch = append(batch, innerFrame{&stm.streamAcct, stm.id, inner, payload})
			if inner != wire.FrameFull {
				expect++
			}
			if inner == wire.FrameRoundHashes || inner == wire.FrameConfirm {
				roundsInCycle++
			}
		}
		if err := sendBatch(fw, wrapped, stats.S2C, batch, costs, st); err != nil {
			return costs, err
		}
		if expect < len(batch) {
			// FULL is a stream's last frame and goes unanswered.
			costs.Roundtrips++
			for _, stm := range streams {
				if stm.state == srFull {
					closeStream(stm)
				}
			}
		}
		if roundsInCycle >= 2 {
			// Rounds that shared this cycle's flush instead of each paying
			// their own roundtrip.
			s.Metrics.Counter(obs.MetricRoundsBatched).Add(int64(roundsInCycle))
		}
		if expect == 0 {
			continue // all-FULL cycle: unanswered; live is now 0
		}

		m := 1 // a lockstep reply is one bare frame
		if wrapped {
			// Every reply-expecting stream gets a fresh round budget; the
			// session blocks on the earliest so one stalled stream fails it
			// in time.
			if sd != nil {
				dl := time.Now().Add(s.RoundTimeout)
				for _, f := range batch {
					if f.inner != wire.FrameFull {
						sd.Touch(f.id, dl)
					}
				}
				sess.SetPhaseDeadline(sd.Earliest())
			}
			reply, err := fr.ExpectFrame(wire.FrameCycle)
			if err != nil {
				return costs, err
			}
			if m, err = wire.ParseCycle(reply); err != nil {
				return fail(err)
			}
			st.cost(costs, stats.C2S, stats.PhaseControl, len(reply))
			costs.Roundtrips++
		}
		if m != expect {
			return fail(fmt.Errorf("collection: reply cycle of %d frames, want %d", m, expect))
		}
		seen := make(map[int]bool, m)
		for k := 0; k < m; k++ {
			var sf wire.StreamFrame
			if wrapped {
				sp, err := fr.ExpectFrame(wire.FrameStream)
				if err != nil {
					return costs, err
				}
				if sf, err = wire.ParseStreamFrame(sp, len(streams)); err != nil {
					return fail(err)
				}
				if seen[sf.ID] {
					return fail(fmt.Errorf("collection: duplicate reply for stream %d", sf.ID))
				}
				seen[sf.ID] = true
				streams[sf.ID].add(stats.C2S, muxPhase(sf.Type), len(sp))
				if sd != nil {
					sd.Touch(sf.ID, time.Now().Add(s.RoundTimeout))
					sess.SetPhaseDeadline(sd.Earliest())
				}
			} else {
				sf.Type = wire.FrameRoundReply
				if streams[0].state == srAwaitAck {
					sf.Type = wire.FrameAck
				}
				var err error
				if sf.Payload, err = fr.ExpectFrame(sf.Type); err != nil {
					return costs, err
				}
				st.cost(costs, stats.C2S, muxPhase(sf.Type), len(sf.Payload))
				costs.Roundtrips++
			}
			stm := streams[sf.ID]
			if err := s.absorb(stm, sf.Type, sf.Payload); err != nil {
				return fail(err)
			}
			if stm.state == srDone {
				closeStream(stm)
			}
		}
	}
	return costs, nil
}

// clientStream is one stream of a pull: the contiguous slice of the
// session's engines plus everything the stream's handler needs to run
// without touching shared state. files, perEngine, buf and the accumulator
// are private to the stream, which is what lets a cycle's handlers run
// concurrently under the race detector. paths and perEngine cover the ACK
// index space: the engines' files, or on a journal hit (no engines) the
// journal files.
type clientStream struct {
	streamAcct
	id        int
	files     []clientFile
	paths     []string
	perEngine []int64
	buf       *wire.Buffer

	// Delta outcome, committed single-threaded by the scheduler.
	results      [][]byte
	verifyFailed []int // ACK indexes; preset to the failed ordinals on a journal hit
	fullIdxs     []int
	fullDatas    [][]byte
	awaitingFull bool
	done         bool

	// reply is the frame the handler built for the current cycle; inner == 0
	// means no reply (a FULL was received).
	reply struct {
		inner   byte
		payload []byte
	}
}

// newClientStreams splits engines into contiguous streams of counts[k]
// engines; each stream writes only its own slice of perEngine.
func newClientStreams(engines []clientFile, counts []int, perEngine []int64) []*clientStream {
	streams := make([]*clientStream, len(counts))
	now := time.Now()
	off := 0
	for k, c := range counts {
		cs := &clientStream{
			id:        k,
			files:     engines[off : off+c],
			perEngine: perEngine[off : off+c],
			buf:       wire.NewBuffer(1024),
		}
		for _, f := range cs.files {
			cs.paths = append(cs.paths, f.path)
		}
		cs.start = now
		streams[k] = cs
		off += c
	}
	return streams
}

// handle processes one received inner frame, fanning the per-file work out
// across workers. It runs concurrently with other streams' handlers and
// touches only this stream's state.
func (cs *clientStream) handle(inner byte, payload []byte, workers int) error {
	cs.reply.inner = 0
	cs.reply.payload = nil
	switch inner {
	case wire.FrameRoundHashes, wire.FrameConfirm:
		reply, err := respond(workers, cs.files, inner, payload, cs.perEngine, cs.buf)
		if err != nil {
			return err
		}
		cs.reply.inner = wire.FrameRoundReply
		cs.reply.payload = reply
	case wire.FrameDelta:
		dp := wire.NewParser(payload)
		nd, err := dp.Uvarint()
		if err != nil || int(nd) != len(cs.files) {
			return fmt.Errorf("collection: delta count mismatch")
		}
		sections := make([][]byte, len(cs.files))
		for i := range cs.files {
			section, err := dp.Bytes()
			if err != nil {
				return err
			}
			sections[i] = section
			cs.perEngine[i] += int64(len(section))
		}
		cs.results = make([][]byte, len(cs.files))
		failed := make([]bool, len(cs.files))
		err = pool.Do(workers, len(cs.files), func(i int) error {
			data, err := cs.files[i].engine.ApplyDelta(sections[i])
			switch {
			case err == nil:
				cs.results[i] = data
			case errors.Is(err, core.ErrVerifyFailed):
				failed[i] = true
			default:
				return fmt.Errorf("collection: file %q: %w", cs.files[i].path, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for i, f := range failed {
			if f {
				cs.verifyFailed = append(cs.verifyFailed, i)
			}
		}
		cs.buf.Reset()
		cs.buf.Uvarint(uint64(len(cs.verifyFailed)))
		for _, i := range cs.verifyFailed {
			cs.buf.Uvarint(uint64(i))
		}
		cs.reply.inner = wire.FrameAck
		cs.reply.payload = cs.buf.Build()
		cs.awaitingFull = len(cs.verifyFailed) > 0
	case wire.FrameFull:
		if !cs.awaitingFull {
			return fmt.Errorf("collection: unexpected FULL for stream %d", cs.id)
		}
		fulls, err := parseIndexed(payload, len(cs.paths))
		if err != nil {
			return err
		}
		if len(fulls) != len(cs.verifyFailed) {
			return fmt.Errorf("collection: full-transfer count mismatch")
		}
		for _, f := range fulls {
			data, err := delta.Decompress(f.section)
			if err != nil {
				return err
			}
			cs.fullIdxs = append(cs.fullIdxs, f.idx)
			cs.fullDatas = append(cs.fullDatas, data)
			cs.perEngine[f.idx] += int64(len(f.section))
			cs.costs.FilesFull++
		}
	default:
		return fmt.Errorf("collection: unexpected frame %s in stream %d", wire.FrameName(inner), cs.id)
	}
	return nil
}

// commit writes the stream's outcome into the session's result set. Scheduler
// goroutine only: the result map is shared across streams.
func (cs *clientStream) commit(out map[string][]byte) {
	failed := make(map[int]bool, len(cs.verifyFailed))
	for _, i := range cs.verifyFailed {
		failed[i] = true
	}
	for i := range cs.files {
		if !failed[i] {
			out[cs.paths[i]] = cs.results[i]
		}
	}
	for k, idx := range cs.fullIdxs {
		out[cs.paths[idx]] = cs.fullDatas[k]
	}
}

// consumeStreams runs the client half of a session's per-file phases: read
// each server cycle, handle its frames concurrently, then reply and commit in
// cycle order. wrapped means MUX_ACK granted the streams; otherwise streams
// holds the one bare stream of a lockstep session.
func consumeStreams(ctx context.Context, fr *wire.FrameReader, fw *wire.FrameWriter, costs *stats.Costs, streams []*clientStream, wrapped bool, workers int, out map[string][]byte, st *sessTrace) error {
	live := len(streams)

	closeStream := func(cs *clientStream) {
		cs.done = true
		costs.Merge(&cs.costs)
		if wrapped {
			st.stream(cs.id, cs.frames, cs.up, cs.down, cs.start)
		}
		live--
	}

	cycle := 0
	for live > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("collection: session cancelled: %w", err)
		}
		var frames []wire.StreamFrame
		if wrapped {
			cycle++
			st.begin(obs.PhaseRound, cycle)
			cp, err := fr.ExpectFrame(wire.FrameCycle)
			if err != nil {
				return err
			}
			n, err := wire.ParseCycle(cp)
			if err != nil {
				return err
			}
			st.cost(costs, stats.S2C, stats.PhaseControl, len(cp))
			if n == 0 || n > live {
				return fmt.Errorf("collection: cycle of %d frames with %d live streams", n, live)
			}
			frames = make([]wire.StreamFrame, n)
			seen := make(map[int]bool, n)
			for k := 0; k < n; k++ {
				sp, err := fr.ExpectFrame(wire.FrameStream)
				if err != nil {
					return err
				}
				sf, err := wire.ParseStreamFrame(sp, len(streams))
				if err != nil {
					return err
				}
				if seen[sf.ID] || streams[sf.ID].done {
					return fmt.Errorf("collection: unexpected frame for stream %d", sf.ID)
				}
				seen[sf.ID] = true
				frames[k] = sf
				streams[sf.ID].add(stats.S2C, muxPhase(sf.Type), len(sp))
			}
		} else {
			ft, payload, err := fr.ReadFrame()
			if err != nil {
				return err
			}
			if ft == wire.FrameError {
				return fmt.Errorf("collection: server error: %s", payload)
			}
			st.lockstep(ft)
			st.cost(costs, stats.S2C, muxPhase(ft), len(payload))
			frames = []wire.StreamFrame{{Type: ft, Payload: payload}}
		}

		// Handle all received frames concurrently; each handler owns its
		// stream's engines, byte attribution and cost accumulator. A lone
		// frame gets the whole worker budget for its per-file fan-out.
		inner := 1
		if len(frames) == 1 {
			inner = workers
		}
		if err := pool.Do(workers, len(frames), func(k int) error {
			return streams[frames[k].ID].handle(frames[k].Type, frames[k].Payload, inner)
		}); err != nil {
			return err
		}

		// Reply in cycle order (the order the server sent, so the reply
		// bytes are deterministic for every worker count).
		var batch []innerFrame
		for _, f := range frames {
			if stm := streams[f.ID]; stm.reply.inner != 0 {
				batch = append(batch, innerFrame{&stm.streamAcct, stm.id, stm.reply.inner, stm.reply.payload})
			}
		}
		if len(batch) > 0 {
			if err := sendBatch(fw, wrapped, stats.C2S, batch, costs, st); err != nil {
				return err
			}
			costs.Roundtrips++
		}
		if len(batch) < len(frames) {
			costs.Roundtrips++ // the cycle carried FULL frames
		}

		// Commit finished streams single-threaded: a stream is done after a
		// clean ACK went out, or after its FULL fallback arrived.
		for _, f := range frames {
			stm := streams[f.ID]
			switch f.Type {
			case wire.FrameDelta:
				if !stm.awaitingFull {
					stm.commit(out)
					closeStream(stm)
				}
			case wire.FrameFull:
				stm.commit(out)
				closeStream(stm)
			}
		}
	}
	return nil
}
