package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"slices"
	"strconv"
	"time"
)

// The benchmark speaks the wire protocol itself (REQ in; CHUNK* then OK
// or ERR out): server.Client.Exec hides the frames, so it can time
// neither the first one nor count them.

// requestTimeout bounds one request; exceeding it fails the operation
// with an I/O error instead of hanging the run.
const requestTimeout = 30 * time.Second

// maxFrame mirrors the server's frame bound (16 MiB).
const maxFrame = 16 << 20

type wireClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	body []byte // concatenated payloads of the last response, reused
}

// response is what one request brought back. body aliases the client's
// buffer and is valid until the next request.
type response struct {
	first  time.Duration // flush of the REQ → first response frame fully read
	total  time.Duration // flush of the REQ → OK or ERR frame fully read
	chunks int           // CHUNK frames before the closing frame
	body   []byte
	remote string // payload of an ERR frame, "" on OK
}

func dialWire(addr string) (*wireClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireClient{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriter(conn)}, nil
}

func (c *wireClient) close() { c.conn.Close() }

// do sends one request and reads the whole response. An error is an I/O
// or protocol failure; a statement the server rejected comes back with
// remote set.
func (c *wireClient) do(req string) (response, error) {
	var resp response
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return resp, err
	}
	if _, err := fmt.Fprintf(c.w, "REQ %d\n", len(req)); err != nil {
		return resp, err
	}
	if _, err := c.w.WriteString(req); err != nil {
		return resp, err
	}
	// The clock starts before the flush, not after: once the request is
	// on the wire the server may answer before this goroutine runs again.
	start := time.Now()
	if err := c.w.Flush(); err != nil {
		return resp, err
	}
	c.body = c.body[:0]
	for {
		header, err := c.r.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		verb, size, ok := bytes.Cut(header[:len(header)-1], []byte(" "))
		if !ok {
			return resp, fmt.Errorf("bad response header %q", header)
		}
		n, err := strconv.Atoi(string(size))
		if err != nil || n < 0 || n > maxFrame {
			return resp, fmt.Errorf("bad response size %q", size)
		}
		// The verb must be decided before the payload read reuses the
		// reader's buffer that header points into.
		closing, failed := false, false
		switch string(verb) {
		case "CHUNK":
		case "OK":
			closing = true
		case "ERR":
			closing, failed = true, true
		default:
			return resp, fmt.Errorf("unknown response verb %q", verb)
		}
		at := len(c.body)
		c.body = slices.Grow(c.body, n)[:at+n]
		if _, err := io.ReadFull(c.r, c.body[at:]); err != nil {
			return resp, err
		}
		now := time.Since(start)
		if resp.first == 0 {
			resp.first = now
		}
		if !closing {
			resp.chunks++
			continue
		}
		resp.total = now
		if failed {
			resp.remote = string(c.body[at:])
		}
		resp.body = c.body
		return resp, nil
	}
}

// answer is the checkable content of a response (or of the text the
// oracle expects): how many molecules it carries, the count its summary
// line states, and two digests of the molecules — one that ignores their
// order and one that does not.
type answer struct {
	molecules int    // "-- molecule" blocks counted
	stated    int    // N of the "N molecule(s)" / "count: N" line, -1 if absent
	multiset  uint64 // order-independent digest of the blocks
	sequence  uint64 // order-dependent digest of the blocks
}

var digestSeed = maphash.MakeSeed()

var (
	moleculePrefix = []byte("-- molecule ")
	levelPrefix    = []byte("level ")
	countPrefix    = []byte("count: ")
	summaryMark    = []byte("molecule(s)")
)

// mix spreads a sum of hashes so that sums of sums do not cancel.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// digest reads a rendered result. Within a molecule the lines are hashed
// as a set, and the atoms of a recursive molecule's level as a set, so
// that an executor is free to emit components in any order; the molecule
// number in the header is skipped because it is a position, not content.
// Lines outside any molecule (counts, groups, the summary) form one block
// of their own.
func digest(text []byte) answer {
	a := answer{stated: -1}
	var preamble, block uint64
	inBlock := false
	closeBlock := func() {
		if inBlock {
			h := mix(block)
			a.multiset += h
			a.sequence = a.sequence*1099511628211 + h
		}
	}
	for len(text) > 0 {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		switch {
		case bytes.HasPrefix(line, moleculePrefix):
			closeBlock()
			a.molecules++
			inBlock = true
			rest := line[len(moleculePrefix):]
			if i := bytes.IndexByte(rest, ' '); i >= 0 {
				rest = rest[i:]
			}
			block = maphash.Bytes(digestSeed, rest)
		case bytes.HasPrefix(line, levelPrefix):
			head, atoms, _ := bytes.Cut(line, []byte(":"))
			h := maphash.Bytes(digestSeed, head)
			for _, tok := range bytes.Fields(atoms) {
				h += maphash.Bytes(digestSeed, tok)
			}
			block += mix(h)
		case len(line) > 0 && line[0] >= '0' && line[0] <= '9' && bytes.Contains(line, summaryMark):
			// "N molecule(s) …" leads a materialized result and trails a
			// streamed one; no line of a molecule starts with a digit.
			closeBlock()
			inBlock = false
			a.stated = leadingInt(line)
			preamble += maphash.Bytes(digestSeed, line)
		case bytes.HasPrefix(line, countPrefix):
			a.stated = leadingInt(line[len(countPrefix):])
			preamble += maphash.Bytes(digestSeed, line)
		case inBlock:
			block += maphash.Bytes(digestSeed, line)
		default:
			preamble += maphash.Bytes(digestSeed, line)
		}
	}
	closeBlock()
	a.multiset += mix(preamble)
	a.sequence = a.sequence*1099511628211 + mix(preamble)
	return a
}

func leadingInt(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}
