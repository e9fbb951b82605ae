package server

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadFrame: no input panics the frame reader, and a frame it
// accepts, written back by writeFrame, reads back to the same verb and
// payload.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range []string{"REQ 5\nhello", "OK 0\n", "CHUNK 3\nabc", "ERR 2\nno", "GARBAGE FRAME\n", "REQ 999999999999\n", "REQ -1\n", "REQ 3\nab"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		verb, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		if err := writeFrame(w, verb, payload); err != nil || w.Flush() != nil {
			t.Fatalf("an accepted frame does not write: %v", err)
		}
		verb2, payload2, err := readFrame(bufio.NewReader(&out))
		if err != nil || verb2 != verb || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame %q %q read back as %q %q (%v)", verb, payload, verb2, payload2, err)
		}
	})
}
