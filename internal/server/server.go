// Package server exposes a MAD database over TCP, completing the PRIMA
// picture (Chapter 5): the molecule-processing layer with its MQL
// interface serving application programs — here, remote clients. Each
// connection gets its own MQL session (named molecule types are
// per-session, as in the paper's dynamic object definition); the shared
// database serializes data access internally.
//
// The wire protocol is deliberately simple and self-framing:
//
//	client → server:  "REQ <n>\n" followed by n bytes of MQL text
//	server → client:  zero or more "CHUNK <n>\n" + n-byte payload frames,
//	                  then exactly one "OK <n>\n" or "ERR <n>\n" frame
//
// One request may contain several ';'-separated statements; the
// concatenation of the CHUNK payloads and the final OK payload is the
// rendering of their results. SELECT results are not buffered: the
// session streams molecules off the planner's bounded-channel executor
// and the handler flushes a CHUNK frame whenever chunkSize bytes have
// rendered, so the first rows reach a client while the bulk of the root
// batch is still deriving, and the server's memory per connection stays
// bounded no matter how large the result is. Because a streamed result's
// cardinality is unknown until the stream ends, its "N molecule(s) of
// ..." summary line trails the molecules instead of leading them.
//
// Each request runs under a context: SetRequestTimeout installs a
// per-request deadline (exceeding it aborts the statement with an ERR
// frame), and a failed CHUNK write — the client hung up mid-result —
// cancels the in-flight derivation, so a disconnected client's workers
// stop instead of materializing a result nobody reads.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"mad/internal/mql"
	"mad/internal/storage"
)

// maxRequest bounds a single request frame (16 MiB).
const maxRequest = 16 << 20

// defaultChunkSize is the rendered-byte threshold at which a response
// CHUNK frame flushes.
const defaultChunkSize = 8 << 10

// Server serves MQL over TCP.
type Server struct {
	db *storage.Database

	mu        sync.Mutex
	listener  net.Listener
	conns     map[net.Conn]bool
	closed    bool
	timeout   time.Duration
	chunkSize int
	wg        sync.WaitGroup
}

// New creates a server over the database.
func New(db *storage.Database) *Server {
	return &Server{db: db, conns: make(map[net.Conn]bool), chunkSize: defaultChunkSize}
}

// SetRequestTimeout installs a per-request deadline (0 disables, the
// default): a request still executing when it expires is aborted and
// answered with an ERR frame, and its in-flight derivation is cancelled.
func (s *Server) SetRequestTimeout(d time.Duration) {
	s.mu.Lock()
	s.timeout = d
	s.mu.Unlock()
}

// SetChunkSize overrides the rendered-byte threshold at which response
// CHUNK frames flush (tests use tiny thresholds to force multi-chunk
// responses).
func (s *Server) SetChunkSize(n int) {
	s.mu.Lock()
	if n > 0 {
		s.chunkSize = n
	}
	s.mu.Unlock()
}

// Listen binds the address (e.g. "127.0.0.1:7227"; port 0 picks a free
// one) and returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Serve accepts connections until Close. It returns nil after a graceful
// Close and the accept error otherwise.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.listener
	s.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting, closes every live connection and waits for the
// handlers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// handle runs one connection's session loop.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	sess := mql.NewSession(s.db)
	// A dropped connection rolls back any transaction left open, so an
	// abandoned BEGIN cannot pin the vacuum horizon forever.
	defer sess.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		verb, req, err := readFrame(r)
		if err != nil || verb != "REQ" {
			return // disconnect or protocol error: drop the connection
		}
		if s.handleRequest(sess, w, string(req)) != nil {
			return // the response could not be delivered: drop the connection
		}
	}
}

// handleRequest executes one request under its context and writes the
// response frames. The returned error reports a broken connection;
// statement errors travel to the client in an ERR frame instead.
func (s *Server) handleRequest(sess *mql.Session, w *bufio.Writer, req string) error {
	s.mu.Lock()
	timeout, chunkSize := s.timeout, s.chunkSize
	s.mu.Unlock()
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// A failed chunk write means the client hung up mid-result: cancel
	// the request context so the in-flight derivation's workers stop.
	ck := &chunker{w: w, limit: chunkSize, cancel: cancel}
	execErr := s.execStream(ctx, sess, req, ck)
	if ck.err != nil {
		return ck.err
	}
	if execErr != nil {
		if err := writeFrame(w, "ERR", []byte(execErr.Error())); err != nil {
			return err
		}
		return w.Flush()
	}
	// The final OK frame carries whatever rendering is still buffered.
	if err := writeFrame(w, "OK", ck.buf); err != nil {
		return err
	}
	return w.Flush()
}

// execStream runs one request's statements, appending each SELECT's
// molecules one by one into the chunker — a streamed result's as they are
// derived, a materialized one's (a SELECT inside a transaction holding
// buffered writes) after its leading count line.
func (s *Server) execStream(ctx context.Context, sess *mql.Session, src string, ck *chunker) error {
	stmts, err := mql.ParseScript(src)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		cur, err := sess.ExecuteStream(ctx, st)
		if err != nil {
			return err
		}
		if !cur.Streaming() {
			r, err := cur.Result()
			if err != nil {
				return err
			}
			if r.Kind != mql.RMolecules {
				ck.add(r.Render(s.db))
				continue
			}
			ck.add(mql.RenderSummary(len(r.Set), r.Desc))
		}
		for {
			m, err := cur.Next()
			if err != nil {
				cur.Close()
				return err
			}
			if m == nil {
				break
			}
			ck.buf = cur.AppendMolecule(ck.buf, m)
			ck.flushFull()
			if ck.err != nil {
				cur.Close()
				return ck.err
			}
		}
		if cur.Streaming() {
			ck.add(mql.RenderSummary(cur.Delivered(), cur.Desc()))
		}
		if err := cur.Close(); err != nil {
			return err
		}
	}
	return nil
}

// chunker accumulates rendered response text and flushes it as CHUNK
// frames once the threshold is reached; whatever remains at the end of
// the request travels in the final OK frame. Molecules are appended
// straight into buf. The first write error is sticky and cancels the
// request context — the client is gone, so the in-flight work should
// stop too.
type chunker struct {
	w      *bufio.Writer
	buf    []byte
	limit  int
	cancel context.CancelFunc
	err    error
}

func (c *chunker) add(s string) {
	if c.err != nil {
		return
	}
	c.buf = append(c.buf, s...)
	c.flushFull()
}

// flushFull flushes a CHUNK frame once buf holds limit bytes.
func (c *chunker) flushFull() {
	if len(c.buf) >= c.limit {
		c.flushChunk()
	}
}

func (c *chunker) flushChunk() {
	if c.err != nil || len(c.buf) == 0 {
		return
	}
	if c.err = writeFrame(c.w, "CHUNK", c.buf); c.err == nil {
		c.err = c.w.Flush()
	}
	if c.err != nil && c.cancel != nil {
		c.cancel()
	}
	c.buf = c.buf[:0]
}

// readFrame reads one "<verb> <n>\n" header and the n payload bytes
// behind it, for requests and responses alike. The header must fit the
// reader's buffer: a peer that never sends '\n' gets an error once the
// buffer is full instead of growing memory.
func readFrame(r *bufio.Reader) (verb string, payload []byte, err error) {
	line, err := r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return "", nil, fmt.Errorf("server: frame header longer than %d bytes", r.Size())
	}
	if err != nil {
		return "", nil, err
	}
	header := string(line[:len(line)-1])
	verb, sizeStr, ok := strings.Cut(header, " ")
	if !ok {
		return "", nil, fmt.Errorf("server: bad frame header %q", header)
	}
	n, err := strconv.Atoi(sizeStr)
	if err != nil || n < 0 || n > maxRequest {
		return "", nil, fmt.Errorf("server: bad frame size %q", sizeStr)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return "", nil, err
	}
	return verb, payload, nil
}

// writeFrame writes "<verb> <n>\n" + payload.
func writeFrame(w *bufio.Writer, verb string, payload []byte) error {
	var hdr [32]byte
	h := strconv.AppendInt(append(append(hdr[:0], verb...), ' '), int64(len(payload)), 10)
	if _, err := w.Write(append(h, '\n')); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Client is a blocking MQL client for the wire protocol.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Exec sends MQL text and returns the rendered result, concatenated
// across however many CHUNK frames the server streamed before the
// closing OK. A server-side statement error comes back as a
// *RemoteError* (any chunks received before it are discarded).
func (c *Client) Exec(src string) (string, error) {
	if err := writeFrame(c.w, "REQ", []byte(src)); err != nil {
		return "", err
	}
	if err := c.w.Flush(); err != nil {
		return "", err
	}
	var out strings.Builder
	for {
		verb, payload, err := readFrame(c.r)
		if err != nil {
			return "", err
		}
		switch verb {
		case "CHUNK":
			out.Write(payload)
		case "OK":
			out.Write(payload)
			return out.String(), nil
		case "ERR":
			return "", &RemoteError{Msg: string(payload)}
		default:
			return "", fmt.Errorf("server: unknown response verb %q", verb)
		}
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteError is a statement error reported by the server.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }
