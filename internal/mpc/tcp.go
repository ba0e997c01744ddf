package mpc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"mpclogic/internal/rel"
)

// TCP transport: the communication phase over real sockets. One
// loopback listener per simulated server plays the destination; every
// (shard, destination) pair ships exactly one length-prefixed frame
// per exchange — empty payloads included, so a receiver knows when a
// shard has nothing for it rather than waiting forever. Receivers
// collect frames in arrival order but merge them in ascending shard
// order, which is what makes the transport bit-compatible with the
// in-process merge no matter how the network interleaves deliveries.
//
// The wire carries the canonical rel fragment encoding (rel/wire.go),
// so a frame's payload decodes to exactly the outbox instance the
// router built, and re-encoding it reproduces the frame — the codec
// laws the fuzzer pins. Exchanges are sequence-numbered: frames from a
// past exchange still sitting in a listener backlog (duplication havoc
// leaves those behind by design) are recognized and discarded instead
// of corrupting the current round.
//
// Every frame carries a CRC-32C checksum over its header fields and
// payload, so a bit-flipped frame is rejected at the codec layer
// before any fragment decoding runs — the receiver drops it as line
// noise and the sender's retransmission carries the round. This is
// what makes the data plane self-healing under corruption havoc: a
// corrupted transfer costs retries in the virtual clock (faults.go
// Corrupt events) but can never change what the round computes.
//
// Deadlines on sockets are liveness bounds only — they decide when a
// broken exchange FAILS, never what a successful exchange computes —
// which is the one sanctioned use of wall time in engine code (see the
// wallclock-free analyzer's deadline allowance).

// Frame is one transport message: shard w's outbox for destination
// dst in exchange Seq, carrying the logical Sent count and the
// canonical fragment encoding as payload.
type Frame struct {
	Seq     uint64 // exchange sequence number, per transport
	Shard   uint32 // source shard index
	Dst     uint32 // destination server
	Sent    uint32 // logical facts in this delivery (payload fact count)
	Payload []byte // canonical rel instance encoding (may be empty-instance)
}

const (
	frameMagic uint32 = 0x4d435046 // "FPCM" little-endian
	// FrameVersion is the transport frame format version; bump on
	// layout changes so mismatched binaries fail loudly. Version 2
	// added the CRC-32C checksum field.
	FrameVersion uint16 = 2
	// frameHeaderLen is magic+version+seq+shard+dst+sent+payloadLen+crc.
	frameHeaderLen = 4 + 2 + 8 + 4 + 4 + 4 + 4 + 4
	// maxFramePayload caps a frame's declared payload so a corrupt
	// length prefix cannot trigger a huge allocation.
	maxFramePayload = 1 << 30
	// tcpIOTimeout bounds every socket operation (accept, read, write,
	// dial) of one exchange. Generous: it only fires when the exchange
	// is already broken.
	tcpIOTimeout = 10 * time.Second
)

// frameCRCTable is the Castagnoli polynomial table; CRC-32C detects
// all burst errors up to 32 bits, covering every single-bit flip the
// corruption havoc injects.
var frameCRCTable = crc32.MakeTable(crc32.Castagnoli)

// encodeFrame serializes f to its full wire image, checksum included.
// The CRC-32C covers every header field after magic+version plus the
// payload, so corruption anywhere in the frame body is detected.
func encodeFrame(f Frame) []byte {
	buf := make([]byte, frameHeaderLen+len(f.Payload))
	binary.LittleEndian.PutUint32(buf[0:], frameMagic)
	binary.LittleEndian.PutUint16(buf[4:], FrameVersion)
	binary.LittleEndian.PutUint64(buf[6:], f.Seq)
	binary.LittleEndian.PutUint32(buf[14:], f.Shard)
	binary.LittleEndian.PutUint32(buf[18:], f.Dst)
	binary.LittleEndian.PutUint32(buf[22:], f.Sent)
	binary.LittleEndian.PutUint32(buf[26:], uint32(len(f.Payload)))
	copy(buf[frameHeaderLen:], f.Payload)
	crc := crc32.Update(0, frameCRCTable, buf[6:frameHeaderLen-4])
	crc = crc32.Update(crc, frameCRCTable, f.Payload)
	binary.LittleEndian.PutUint32(buf[frameHeaderLen-4:], crc)
	return buf
}

// WriteFrame writes f to w in wire format (integers little-endian):
//
//	frame := magic u32 | version u16 | seq u64 | shard u32 | dst u32
//	       | sent u32 | payloadLen u32 | crc u32 | payload
//
// where crc is CRC-32C over seq..payloadLen plus the payload.
func WriteFrame(w io.Writer, f Frame) error {
	if _, err := w.Write(encodeFrame(f)); err != nil {
		return fmt.Errorf("mpc: writing frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame from r. Truncation, bad magic or version,
// oversized payload prefixes, and checksum mismatches are errors,
// never panics — a receiver treats them as line noise and drops the
// connection, counting on the sender's clean retransmission.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, frameHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, fmt.Errorf("mpc: reading frame header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != frameMagic {
		return Frame{}, fmt.Errorf("mpc: bad frame magic %#x (want %#x)", magic, frameMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != FrameVersion {
		return Frame{}, fmt.Errorf("mpc: unsupported frame version %d (this peer speaks %d)", v, FrameVersion)
	}
	f := Frame{
		Seq:   binary.LittleEndian.Uint64(hdr[6:]),
		Shard: binary.LittleEndian.Uint32(hdr[14:]),
		Dst:   binary.LittleEndian.Uint32(hdr[18:]),
		Sent:  binary.LittleEndian.Uint32(hdr[22:]),
	}
	payloadLen := binary.LittleEndian.Uint32(hdr[26:])
	if payloadLen > maxFramePayload {
		return Frame{}, fmt.Errorf("mpc: frame declares %d payload bytes (cap %d)", payloadLen, maxFramePayload)
	}
	f.Payload = make([]byte, payloadLen)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, fmt.Errorf("mpc: reading frame payload: %w", err)
	}
	want := binary.LittleEndian.Uint32(hdr[frameHeaderLen-4:])
	got := crc32.Update(0, frameCRCTable, hdr[6:frameHeaderLen-4])
	got = crc32.Update(got, frameCRCTable, f.Payload)
	if got != want {
		return Frame{}, fmt.Errorf("mpc: frame checksum mismatch (header says %#x, body hashes to %#x)", want, got)
	}
	return f, nil
}

// TCPTransport runs the communication phase over loopback TCP, one
// listener per simulated server. It implements Transport and
// FrameFaultInjector. Not safe for concurrent Exchange calls (the
// Transport contract already forbids them).
type TCPTransport struct {
	p         int
	listeners []*net.TCPListener
	addrs     []string
	seq       uint64
	closed    bool

	// Armed frame havoc for the next exchange (see InjectFrameFaults);
	// one-shot, cleared after use.
	havocRound int
	havocPlan  *FaultPlan
}

// NewTCPTransport opens p loopback listeners, one per simulated
// server, and returns a transport ready to Exchange. Callers own the
// transport and must Close it.
func NewTCPTransport(p int) (*TCPTransport, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mpc: TCP transport needs at least one server (got p=%d)", p)
	}
	t := &TCPTransport{p: p}
	for i := 0; i < p; i++ {
		ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Close() //lint:allow error-discard best-effort unwind of the partial listener set
			return nil, fmt.Errorf("mpc: listening for server %d: %w", i, err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs = append(t.addrs, ln.Addr().String())
	}
	return t, nil
}

// Name implements Transport.
func (t *TCPTransport) Name() string { return "tcp" }

// Addrs returns the per-server listener addresses (for diagnostics).
func (t *TCPTransport) Addrs() []string { return append([]string(nil), t.addrs...) }

// Close shuts all listeners. Safe to call more than once.
func (t *TCPTransport) Close() error {
	t.closed = true
	var first error
	for _, ln := range t.listeners {
		if ln == nil {
			continue
		}
		if err := ln.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.listeners = nil
	return first
}

// InjectFrameFaults implements FrameFaultInjector: the next Exchange
// realizes plan's drops as aborted partial frames followed by a
// retransmission, its dups as extra identical frames the receiver's
// (seq, shard) dedup discards, and its corruptions as bit-flipped
// frames the receiver's checksum rejects. One-shot.
func (t *TCPTransport) InjectFrameFaults(round int, plan *FaultPlan) {
	t.havocRound, t.havocPlan = round, plan
}

// Exchange implements Transport: every shard's outbox for every
// destination travels as one frame over a fresh loopback connection;
// each destination's collector accepts until it has seen all shards
// for this exchange's sequence number, then merges them in ascending
// shard order. received counts are summed from the frames' Sent
// fields, so the returned accounting really crossed the wire.
func (t *TCPTransport) Exchange(round string, p int, shards []Shard) ([]*rel.Instance, []int, error) {
	if t.closed || len(t.listeners) == 0 {
		return nil, nil, fmt.Errorf("mpc: exchange %q on a closed TCP transport", round)
	}
	if p != t.p {
		return nil, nil, fmt.Errorf("mpc: exchange %q routed for %d servers on a %d-server TCP transport", round, p, t.p)
	}
	havocRound, havocPlan := t.havocRound, t.havocPlan
	t.havocPlan = nil
	t.seq++
	seq := t.seq

	inboxes := make([]*rel.Instance, p)
	received := make([]int, p)
	collectErrs := make([]error, p)
	sendErrs := make([]error, len(shards))

	var wg sync.WaitGroup
	for dst := 0; dst < p; dst++ {
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			inboxes[dst], received[dst], collectErrs[dst] = t.collect(dst, seq, len(shards))
		}(dst)
	}
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sendErrs[w] = t.sendShard(w, seq, shards[w], havocRound, havocPlan)
		}(w)
	}
	wg.Wait()

	for _, err := range sendErrs {
		if err != nil {
			return nil, nil, fmt.Errorf("mpc: exchange %q: %w", round, err)
		}
	}
	for _, err := range collectErrs {
		if err != nil {
			return nil, nil, fmt.Errorf("mpc: exchange %q: %w", round, err)
		}
	}
	return inboxes, received, nil
}

// collect accepts frames on dst's listener until every shard of
// exchange seq has delivered, then merges the decoded fragments in
// ascending shard order. Line noise — aborted connections, malformed
// frames, frames from past exchanges, duplicate (seq, shard) frames —
// is discarded; only a complete well-formed frame with an undecodable
// payload is a hard error, because that means a peer speaks the frame
// format but not the fragment format.
func (t *TCPTransport) collect(dst int, seq uint64, nshards int) (*rel.Instance, int, error) {
	ln := t.listeners[dst]
	frags := make([]*rel.Instance, nshards)
	sent := make([]int, nshards)
	have := 0
	if err := ln.SetDeadline(time.Now().Add(tcpIOTimeout)); err != nil {
		return nil, 0, fmt.Errorf("server %d arming accept deadline: %w", dst, err)
	}
	for have < nshards {
		conn, err := ln.AcceptTCP()
		if err != nil {
			return nil, 0, fmt.Errorf("server %d accepting (have %d/%d shards): %w", dst, have, nshards, err)
		}
		f, err := func() (Frame, error) {
			defer conn.Close() // one frame per connection; close is best-effort
			if err := conn.SetDeadline(time.Now().Add(tcpIOTimeout)); err != nil {
				return Frame{}, err
			}
			return ReadFrame(conn)
		}()
		if err != nil {
			continue // aborted or malformed connection: line noise
		}
		if f.Seq != seq || int(f.Dst) != dst {
			continue // stale frame from a past exchange, or misrouted
		}
		if int(f.Shard) >= nshards || frags[f.Shard] != nil {
			continue // duplicate delivery: the merge is idempotent by dedup
		}
		inst, err := rel.DecodeInstance(f.Payload)
		if err != nil {
			return nil, 0, fmt.Errorf("server %d decoding shard %d fragment: %w", dst, f.Shard, err)
		}
		frags[f.Shard] = inst
		sent[f.Shard] = int(f.Sent)
		have++
	}
	n := 0
	for _, k := range sent {
		n += k
	}
	return MergeFragments(frags), n, nil
}

// sendShard ships shard w's outboxes: one frame per destination,
// always — an empty outbox still sends an empty-instance frame so the
// destination's collector can count the shard as heard from. Armed
// havoc is realized here: a dropped transfer becomes that many aborted
// connections before the real frame (the receiver discards the
// stumps), a duplicated transfer that many extra identical frames
// after it (the receiver dedups), and a corrupted transfer that many
// bit-flipped frames before the real one (the receiver's checksum
// rejects them).
func (t *TCPTransport) sendShard(w int, seq uint64, sh Shard, havocRound int, havocPlan *FaultPlan) error {
	for dst := 0; dst < t.p; dst++ {
		out := sh.Outs[dst]
		if out == nil {
			out = rel.NewInstance()
		}
		f := Frame{
			Seq:     seq,
			Shard:   uint32(w),
			Dst:     uint32(dst),
			Sent:    uint32(sh.Sent[dst]),
			Payload: rel.EncodeInstance(out),
		}
		drops, dups, corrupts := 0, 0, 0
		// Physical faults hit only real network links that carry facts,
		// mirroring the virtual clock's accounting in recovery.go (a
		// cluster with a fault plan routes one shard per source, so w
		// is the source).
		if havocPlan != nil && w != dst && sh.Sent[dst] > 0 {
			drops = havocPlan.drops(havocRound, w, dst)
			dups = havocPlan.dups(havocRound, w, dst)
			corrupts = havocPlan.corrupts(havocRound, w, dst)
		}
		for i := 0; i < drops; i++ {
			if err := t.sendStump(dst, f, i); err != nil {
				return err
			}
		}
		for i := 0; i < corrupts; i++ {
			if err := t.sendCorruptFrame(dst, f, i); err != nil {
				return err
			}
		}
		if err := t.sendFrame(dst, f); err != nil {
			return fmt.Errorf("shard %d frame to server %d: %w", w, dst, err)
		}
		for i := 0; i < dups; i++ {
			if err := t.sendFrame(dst, f); err != nil {
				return fmt.Errorf("shard %d duplicate frame to server %d: %w", w, dst, err)
			}
		}
	}
	return nil
}

// dialJitter derives a deterministic 0–4ms jitter from (dst, attempt)
// so concurrent senders retrying against the same backlogged listener
// spread out instead of thundering back in lockstep. A hash, not a
// shared rand.Rand: sendShard goroutines dial concurrently and must
// not race on generator state.
func dialJitter(dst, attempt int) time.Duration {
	h := uint64(dst)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return time.Duration(h%5) * time.Millisecond
}

// dial connects to dst's listener with a bounded retry: concurrent
// exchanges can momentarily exhaust the accept backlog, and a refused
// or reset dial then succeeds a moment later. Backoff grows linearly
// with a deterministic per-(dst, attempt) jitter.
func (t *TCPTransport) dial(dst int) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt)*10*time.Millisecond + dialJitter(dst, attempt)) //lint:allow wallclock-free bounded jittered dial backoff on connection I/O, never logical time
		}
		conn, err := net.DialTimeout("tcp", t.addrs[dst], tcpIOTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dialing server %d: %w", dst, lastErr)
}

func (t *TCPTransport) sendFrame(dst int, f Frame) error {
	conn, err := t.dial(dst)
	if err != nil {
		return err
	}
	defer conn.Close() // frame fully written before close; close is best-effort
	if err := conn.SetDeadline(time.Now().Add(tcpIOTimeout)); err != nil {
		return err
	}
	return WriteFrame(conn, f)
}

// sendStump realizes one dropped transfer physically, alternating two
// failure shapes by attempt: even attempts die mid-header (a FIN after
// half a header), odd attempts ship the full header plus half the
// payload and then abort with an RST (SetLinger(0) discards unsent
// data and resets on close). Either way the receiver's ReadFrame
// fails, the stump is discarded as line noise, and the caller
// retransmits.
func (t *TCPTransport) sendStump(dst int, f Frame, attempt int) error {
	conn, err := t.dial(dst)
	if err != nil {
		return err
	}
	defer conn.Close() // aborting the connection IS the fault being injected
	if err := conn.SetDeadline(time.Now().Add(tcpIOTimeout)); err != nil {
		return err
	}
	buf := encodeFrame(f)
	cut := frameHeaderLen / 2
	if attempt%2 == 1 {
		cut = frameHeaderLen + len(f.Payload)/2
		if cut >= len(buf) {
			cut = len(buf) - 1 // an empty payload still must not complete the frame
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0) //lint:allow error-discard arming the RST is the fault being injected; failure degrades to a FIN abort
		}
	}
	if _, err := conn.Write(buf[:cut]); err != nil {
		return fmt.Errorf("aborted frame to server %d: %w", dst, err)
	}
	return nil
}

// sendCorruptFrame realizes one corrupted transfer physically: the
// complete frame ships with a single payload bit flipped after the
// checksum was computed, so the receiver's CRC verification rejects it
// as line noise and the caller's clean retransmission carries the
// round. The flipped position is a deterministic function of the
// attempt, so repeated corruptions hit different bytes.
func (t *TCPTransport) sendCorruptFrame(dst int, f Frame, attempt int) error {
	buf := encodeFrame(f)
	if len(f.Payload) == 0 {
		// Nothing to flip; an aborted connection is the nearest fault.
		return t.sendStump(dst, f, attempt)
	}
	pos := frameHeaderLen + (attempt*131+7)%len(f.Payload)
	buf[pos] ^= 1 << (attempt % 8)

	conn, err := t.dial(dst)
	if err != nil {
		return err
	}
	defer conn.Close() // full (corrupt) frame written before close; close is best-effort
	if err := conn.SetDeadline(time.Now().Add(tcpIOTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("corrupted frame to server %d: %w", dst, err)
	}
	return nil
}
