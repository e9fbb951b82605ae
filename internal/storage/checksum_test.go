package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mad/internal/model"
)

// TestEveryByteFlipIsCaught: a state file — a checkpoint, or the
// snapshot Save writes — that changed in any one byte either fails to
// load or loads into the very database that was written. It never loads
// into a different one. Every proper prefix of it, a cut at a frame
// boundary included, fails to load.
func TestEveryByteFlipIsCaught(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.DefineAtomType("part", model.MustDesc(model.AttrDesc{Name: "name", Kind: model.KString},
		model.AttrDesc{Name: "qty", Kind: model.KInt}, model.AttrDesc{Name: "weight", Kind: model.KFloat},
		model.AttrDesc{Name: "ok", Kind: model.KBool}, model.AttrDesc{Name: "ref", Kind: model.KID}))
	if err == nil {
		_, err = db.DefineLinkType("comp", model.LinkDesc{SideA: "part", SideB: "part"})
	}
	a, b := model.AtomID(0), model.AtomID(0)
	if err == nil {
		a, err = db.InsertAtom("part", model.Str("Alpha-widget"), model.Int(-4), model.Float(0.5), model.Bool(true), model.Null())
	}
	if err == nil {
		b, err = db.InsertAtom("part", model.Str("nut"), model.Int(7), model.Null(), model.Bool(false), model.ID(a))
	}
	if err == nil {
		err = db.Connect("comp", a, b)
	}
	if err == nil {
		err = db.CreateIndex("part", "name")
	}
	if err == nil {
		_, err = db.Analyze()
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(db.dir, ckptFile))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "saved.mad")
	if err := Save(db, path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// load fingerprints the database a file loads into.
	load := func(data []byte) (string, error) {
		got, ts, err := loadState(bytes.NewReader(data))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("ts %d\n%s%s", ts, fingerprint(got), histFingerprint(got)), nil
	}

	for _, c := range []struct {
		name string
		file []byte
	}{{"checkpoint", ckpt}, {"snapshot", saved}} {
		t.Run(c.name, func(t *testing.T) {
			want, err := load(c.file)
			if err != nil {
				t.Fatalf("the unchanged file does not load: %v", err)
			}
			silent := 0
			for i := range c.file {
				flipped := bytes.Clone(c.file)
				flipped[i] ^= 0xff
				if got, err := load(flipped); err == nil && got != want {
					silent++
				}
			}
			if silent > 0 {
				t.Fatalf("%d of %d single-byte flips loaded into a different database", silent, len(c.file))
			}
			// Cut at any length, the file fails its checksum. Sealed again with
			// a valid one, a cut inside a record still fails: a torn frame is
			// an error, not an end of input. Only a cut at a record boundary
			// then loads — which is what the checksum is there to catch.
			body := c.file[len(stateMagic) : len(c.file)-4]
			bounds := map[int]bool{}
			for off := 8; off < len(body); off += walRecHeader + int(binary.LittleEndian.Uint32(body[off:])) {
				bounds[off] = true
			}
			for n := range c.file {
				if _, err := load(c.file[:n]); err == nil {
					t.Fatalf("the file cut to %d of its %d bytes loads", n, len(c.file))
				}
			}
			for n := range body {
				if _, err := load(sealState(body[:n])); err == nil && !bounds[n] {
					t.Fatalf("the body cut to %d of its %d bytes and sealed loads", n, len(body))
				}
			}
		})
	}
}

// histFingerprint renders every histogram's state.
func histFingerprint(db *Database) string {
	var b strings.Builder
	for _, key := range db.Histograms() {
		typeName, attr, _ := strings.Cut(key, ".")
		h, _ := db.Histogram(typeName, attr)
		fmt.Fprintf(&b, "hist %s: %+v\n", key, h.State())
	}
	return b.String()
}
