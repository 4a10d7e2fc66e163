package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/rt"
)

// The TCP transport: each rank is a separate OS process and frames
// move over real sockets with length-prefixed binary framing. Vector
// payloads go as raw little-endian float64s; object payloads
// (SendObj) ride as gob blobs — see RegisterObjType.
//
// Rendezvous: rank 0 listens on the shared address; every other rank
// dials it, announces its rank and its own mesh-listener address, and
// receives the full peer table back. The all-to-all mesh then forms
// with a fixed orientation — each rank dials every lower rank and
// accepts from every higher rank — so exactly one connection exists
// per pair. The connection to rank 0 doubles as the rendezvous
// channel and the rank-0 data link.

// Environment variables a rank process reads to join a TCP world
// (EnvTCPConfig). The launcher cmd/omp4go-mpirun sets all of them, and
// OMP_DISPLAY_ENV=verbose lists them: EnvTCPConfig reads them through
// rt.ListedEnv, which refuses a name the runtime's table lacks.
const (
	EnvMPIAddr     = "OMP4GO_MPI_ADDR"
	EnvMPIRank     = "OMP4GO_MPI_RANK"
	EnvMPISize     = "OMP4GO_MPI_SIZE"
	EnvMPICoalesce = "OMP4GO_MPI_COALESCE"
)

// TCPConfig describes one rank's place in a multi-process world.
type TCPConfig struct {
	// Rank of this process and total Size of the world.
	Rank, Size int
	// Addr is the rendezvous address rank 0 listens on and every other
	// rank dials, e.g. "127.0.0.1:7311".
	Addr string
	// DialTimeout bounds the whole rendezvous (dial retries included);
	// 0 means 10s.
	DialTimeout time.Duration
	// FlushWindow and CoalesceBytes override the communicator's
	// batching parameters (0 keeps the defaults).
	FlushWindow   time.Duration
	CoalesceBytes int
	// Metrics, when set, receives the omp4go_mpi_* counters (a
	// Runtime's registry puts them on its /metrics endpoint).
	Metrics *metrics.Registry
}

// EnvTCPConfig builds a TCPConfig from OMP4GO_MPI_* variables via
// getenv (normally os.Getenv). ok is false when OMP4GO_MPI_ADDR is
// unset — the process is not part of a TCP world.
func EnvTCPConfig(getenv func(string) string) (cfg TCPConfig, ok bool, err error) {
	getenv = rt.ListedEnv(getenv)
	cfg.Addr = getenv(EnvMPIAddr)
	if cfg.Addr == "" {
		return TCPConfig{}, false, nil
	}
	parse := func(name string) (int, error) {
		s := getenv(name)
		if s == "" {
			return 0, fmt.Errorf("mpi: %s is set but %s is not", EnvMPIAddr, name)
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("mpi: invalid %s %q: %w", name, s, err)
		}
		return n, nil
	}
	if cfg.Rank, err = parse(EnvMPIRank); err != nil {
		return TCPConfig{}, false, err
	}
	if cfg.Size, err = parse(EnvMPISize); err != nil {
		return TCPConfig{}, false, err
	}
	if s := getenv(EnvMPICoalesce); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return TCPConfig{}, false, fmt.Errorf("mpi: invalid %s %q", EnvMPICoalesce, s)
		}
		cfg.CoalesceBytes = n
	}
	return cfg, true, nil
}

// ConnectTCP joins the TCP world described by cfg: it performs the
// rank rendezvous, builds the all-to-all mesh, and returns a Comm
// whose collectives, matching and coalescing behave identically to
// the in-process transport's. Dial and accept failures surface as
// errors within cfg.DialTimeout — a missing or crashed peer never
// hangs the rendezvous.
func ConnectTCP(cfg TCPConfig) (*Comm, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("mpi: world size %d must be at least 1", cfg.Size)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("mpi: rank %d outside world of size %d", cfg.Rank, cfg.Size)
	}
	opts := commOptions{metrics: cfg.Metrics, flushWindow: cfg.FlushWindow, coalesceBytes: cfg.CoalesceBytes}
	tr := &tcpTransport{rank: cfg.Rank, size: cfg.Size}
	if cfg.Size > 1 {
		if err := tr.rendezvous(cfg); err != nil {
			tr.Close()
			return nil, fmt.Errorf("mpi: rank %d rendezvous: %w", cfg.Rank, err)
		}
	}
	return newComm(tr, opts), nil
}

// tcpHello is the first control message on every new connection.
type tcpHello struct {
	Rank int
	// Addr is the sender's mesh-listener address; only the hello to
	// rank 0 carries it.
	Addr string
}

// tcpTable is rank 0's reply: the mesh address of every rank
// (Addrs[0] is unused — everyone already holds the rank-0 link).
type tcpTable struct {
	Addrs []string
}

// ctlLimit bounds control-blob sizes (a peer table of hostnames is
// tiny; anything larger is a corrupt or hostile stream).
const ctlLimit = 1 << 20

// writeCtl sends one gob-encoded control value as a length-prefixed
// blob. The explicit length prefix matters: a raw gob.Decoder reads
// ahead of the value it decodes, which would swallow framing bytes of
// the data stream that follows the rendezvous on the same connection.
func writeCtl(conn net.Conn, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(buf.Len()))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(buf.Bytes())
	return err
}

// readCtl reads one length-prefixed control blob into v.
func readCtl(conn io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > ctlLimit {
		return fmt.Errorf("control message of %d bytes exceeds limit", n)
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(conn, blob); err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(blob)).Decode(v)
}

// tcpPeer is one live connection plus its read-side state. The
// Transport contract (one Recv caller per src at a time) makes rbuf
// and br single-reader; wmu serializes writes defensively.
type tcpPeer struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	bw   *bufio.Writer
	rbuf []frame // decoded frames not yet handed to Recv
}

type tcpTransport struct {
	rank, size int
	peers      []*tcpPeer // nil for self and, before rendezvous, everyone
	closeOnce  sync.Once
}

func (t *tcpTransport) Rank() int { return t.rank }
func (t *tcpTransport) Size() int { return t.size }

func (t *tcpTransport) adopt(rank int, conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // halo messages are latency-bound
	}
	_ = conn.SetDeadline(time.Time{})
	t.peers[rank] = &tcpPeer{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
}

// rendezvous establishes the all-to-all mesh per the protocol in the
// package comment. Every conn carries a deadline until the mesh is
// complete, so a dead or absent peer fails the rendezvous instead of
// hanging it.
func (t *tcpTransport) rendezvous(cfg TCPConfig) error {
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	deadline := time.Now().Add(timeout)
	t.peers = make([]*tcpPeer, t.size)
	if t.rank == 0 {
		return t.rendezvousRoot(cfg, deadline)
	}
	return t.rendezvousPeer(cfg, deadline)
}

func (t *tcpTransport) rendezvousRoot(cfg TCPConfig, deadline time.Time) error {
	ln, err := listenRetry(cfg.Addr, deadline)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", cfg.Addr, err)
	}
	defer ln.Close()
	addrs := make([]string, t.size)
	conns := make([]net.Conn, t.size)
	for n := 1; n < t.size; n++ {
		if tl, ok := ln.(*net.TCPListener); ok {
			_ = tl.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("waiting for %d more ranks: %w", t.size-n, err)
		}
		_ = conn.SetDeadline(deadline)
		var h tcpHello
		if err := readCtl(conn, &h); err != nil {
			return fmt.Errorf("reading hello: %w", err)
		}
		if h.Rank <= 0 || h.Rank >= t.size || conns[h.Rank] != nil {
			return fmt.Errorf("bad or duplicate hello from rank %d", h.Rank)
		}
		conns[h.Rank] = conn
		addrs[h.Rank] = h.Addr
	}
	table := tcpTable{Addrs: addrs}
	for r := 1; r < t.size; r++ {
		if err := writeCtl(conns[r], table); err != nil {
			return fmt.Errorf("sending peer table to rank %d: %w", r, err)
		}
		t.adopt(r, conns[r])
	}
	return nil
}

func (t *tcpTransport) rendezvousPeer(cfg TCPConfig, deadline time.Time) error {
	// The mesh listener accepts connections from higher ranks. Its
	// advertised host is whatever interface reaches rank 0, learned
	// from the rendezvous connection itself.
	mesh, err := net.Listen("tcp", ":0")
	if err != nil {
		return fmt.Errorf("mesh listener: %w", err)
	}
	defer mesh.Close()
	conn0, err := dialRetry(cfg.Addr, deadline)
	if err != nil {
		return fmt.Errorf("dialing rank 0 at %s: %w", cfg.Addr, err)
	}
	_ = conn0.SetDeadline(deadline)
	host, _, err := net.SplitHostPort(conn0.LocalAddr().String())
	if err != nil {
		conn0.Close()
		return err
	}
	_, meshPort, err := net.SplitHostPort(mesh.Addr().String())
	if err != nil {
		conn0.Close()
		return err
	}
	hello := tcpHello{Rank: t.rank, Addr: net.JoinHostPort(host, meshPort)}
	if err := writeCtl(conn0, hello); err != nil {
		conn0.Close()
		return fmt.Errorf("sending hello to rank 0: %w", err)
	}
	var table tcpTable
	if err := readCtl(conn0, &table); err != nil {
		conn0.Close()
		return fmt.Errorf("reading peer table: %w", err)
	}
	if len(table.Addrs) != t.size {
		conn0.Close()
		return fmt.Errorf("peer table has %d entries, want %d", len(table.Addrs), t.size)
	}
	t.adopt(0, conn0)
	// Dial every lower rank; they accept from every higher rank.
	for j := 1; j < t.rank; j++ {
		cj, err := dialRetry(table.Addrs[j], deadline)
		if err != nil {
			return fmt.Errorf("dialing rank %d at %s: %w", j, table.Addrs[j], err)
		}
		_ = cj.SetDeadline(deadline)
		if err := writeCtl(cj, tcpHello{Rank: t.rank}); err != nil {
			cj.Close()
			return fmt.Errorf("sending hello to rank %d: %w", j, err)
		}
		t.adopt(j, cj)
	}
	for n := t.rank + 1; n < t.size; n++ {
		if tl, ok := mesh.(*net.TCPListener); ok {
			_ = tl.SetDeadline(deadline)
		}
		conn, err := mesh.Accept()
		if err != nil {
			return fmt.Errorf("waiting for %d more higher ranks: %w", t.size-n, err)
		}
		_ = conn.SetDeadline(deadline)
		var h tcpHello
		if err := readCtl(conn, &h); err != nil {
			conn.Close()
			return fmt.Errorf("reading mesh hello: %w", err)
		}
		if h.Rank <= t.rank || h.Rank >= t.size || t.peers[h.Rank] != nil {
			conn.Close()
			return fmt.Errorf("bad or duplicate mesh hello from rank %d", h.Rank)
		}
		t.adopt(h.Rank, conn)
	}
	return nil
}

// dialRetry dials addr until it succeeds or the deadline passes.
// Retrying absorbs start-order races — a rank may come up and dial
// before its target's listener exists.
func dialRetry(addr string, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("timed out dialing %s", addr)
			}
			return nil, lastErr
		}
		step := remain
		if step > 500*time.Millisecond {
			step = 500 * time.Millisecond
		}
		conn, err := net.DialTimeout("tcp", addr, step)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
}

// listenRetry binds addr, retrying while a previous process's socket
// lingers in TIME_WAIT or a launcher-picked port is briefly occupied.
func listenRetry(addr string, deadline time.Time) (net.Listener, error) {
	var lastErr error
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		lastErr = err
		if time.Until(deadline) <= 0 {
			return nil, lastErr
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Wire format of one SendBatch:
//
//	u32 bodyLen | body
//	body = u16 nframes | nframes × frame
//	frame = u8 kind | u32 tag | u32 count | payload
//
// kindData/kindColl payloads are count little-endian float64s;
// kindObj payloads are count gob bytes (an objEnvelope). All integers
// little-endian. One batch is one buffered write, so every coalesced
// message behind the first costs no extra syscall or packet.
const (
	batchLimit     = 1 << 30
	framesPerBatch = 1 << 16
)

// objEnvelope wraps a SendObj value so gob moves the dynamic type.
type objEnvelope struct {
	V any
}

// RegisterObjType registers a concrete type for SendObj transmission
// over the TCP transport (gob.Register under the hood). Common basic
// types are pre-registered; call this for application structs. The
// local transport needs no registration — it passes values in memory.
func RegisterObjType(v any) { gob.Register(v) }

func init() {
	// Types SendObj callers in this repo and its examples use.
	for _, v := range []any{int(0), int64(0), float64(0), "", false,
		[]float64(nil), []int(nil), []string(nil), []any(nil),
		map[string]float64(nil), map[string]any(nil)} {
		gob.Register(v)
	}
}

func encodeBatch(frames []frame) ([]byte, error) {
	if len(frames) == 0 || len(frames) >= framesPerBatch {
		return nil, fmt.Errorf("batch of %d frames outside wire limits", len(frames))
	}
	buf := make([]byte, 6, 6+frames[0].wireBytes()) // u32 len + u16 nframes
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(frames)))
	var hdr [9]byte
	for i := range frames {
		f := &frames[i]
		hdr[0] = byte(f.kind)
		binary.LittleEndian.PutUint32(hdr[1:5], uint32(f.tag))
		switch f.kind {
		case kindData, kindColl:
			binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(f.data)))
			buf = append(buf, hdr[:]...)
			for _, v := range f.data {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				buf = append(buf, b[:]...)
			}
		case kindObj:
			var ob bytes.Buffer
			if err := gob.NewEncoder(&ob).Encode(objEnvelope{V: f.obj}); err != nil {
				return nil, fmt.Errorf("encoding object (tag %d): %w — see mpi.RegisterObjType", f.tag, err)
			}
			binary.LittleEndian.PutUint32(hdr[5:9], uint32(ob.Len()))
			buf = append(buf, hdr[:]...)
			buf = append(buf, ob.Bytes()...)
		default:
			return nil, fmt.Errorf("unknown frame kind %d", f.kind)
		}
	}
	if len(buf)-4 > batchLimit {
		return nil, fmt.Errorf("batch of %d bytes exceeds wire limit", len(buf)-4)
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
	return buf, nil
}

func decodeBatch(br *bufio.Reader) ([]frame, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
	if bodyLen < 2 || bodyLen > batchLimit {
		return nil, fmt.Errorf("corrupt batch length %d", bodyLen)
	}
	// hdr[4:6] is the body's leading u16 nframes; the rest follows.
	body := make([]byte, bodyLen-2)
	nframes := int(binary.LittleEndian.Uint16(hdr[4:6]))
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	frames := make([]frame, 0, nframes)
	off := 0
	for i := 0; i < nframes; i++ {
		if off+9 > len(body) {
			return nil, fmt.Errorf("corrupt batch: truncated frame header")
		}
		kind := frameKind(body[off])
		tag := int32(binary.LittleEndian.Uint32(body[off+1 : off+5]))
		count := int(binary.LittleEndian.Uint32(body[off+5 : off+9]))
		off += 9
		switch kind {
		case kindData, kindColl:
			if off+8*count > len(body) {
				return nil, fmt.Errorf("corrupt batch: truncated vector payload")
			}
			data := make([]float64, count)
			for j := 0; j < count; j++ {
				data[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off : off+8]))
				off += 8
			}
			frames = append(frames, frame{kind: kind, tag: tag, data: data})
		case kindObj:
			if off+count > len(body) {
				return nil, fmt.Errorf("corrupt batch: truncated object payload")
			}
			var env objEnvelope
			if err := gob.NewDecoder(bytes.NewReader(body[off : off+count])).Decode(&env); err != nil {
				return nil, fmt.Errorf("decoding object (tag %d): %w — see mpi.RegisterObjType", tag, err)
			}
			off += count
			frames = append(frames, frame{kind: kind, tag: tag, obj: env.V})
		default:
			return nil, fmt.Errorf("corrupt batch: unknown frame kind %d", kind)
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("corrupt batch: %d trailing bytes", len(body)-off)
	}
	return frames, nil
}

func (t *tcpTransport) SendBatch(dst int, frames []frame) error {
	p := t.peers[dst]
	if p == nil {
		return fmt.Errorf("no connection to rank %d", dst)
	}
	buf, err := encodeBatch(frames)
	if err != nil {
		return err
	}
	p.wmu.Lock()
	defer p.wmu.Unlock()
	if _, err := p.bw.Write(buf); err != nil {
		return err
	}
	return p.bw.Flush()
}

func (t *tcpTransport) Recv(src int) (frame, error) {
	p := t.peers[src]
	if p == nil {
		return frame{}, fmt.Errorf("no connection to rank %d", src)
	}
	if len(p.rbuf) == 0 {
		batch, err := decodeBatch(p.br)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("rank %d: connection closed: %w", src, errRankGone)
			}
			return frame{}, err
		}
		p.rbuf = batch
	}
	f := p.rbuf[0]
	p.rbuf = p.rbuf[1:]
	return f, nil
}

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		for _, p := range t.peers {
			if p != nil {
				_ = p.conn.Close()
			}
		}
	})
	return nil
}
