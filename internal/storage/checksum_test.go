package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mad/internal/model"
)

// TestEveryByteFlipIsCaught: a durable file — a checkpoint, or the
// snapshot a codec.Save writes — that changed in any one byte either
// fails to load or loads into the very database that was written. It
// never loads into a different one.
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
	var snap bytes.Buffer
	if err := EncodeSnapshot(db, &snap); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		file []byte
		// load fingerprints the database the file loads into.
		load func([]byte) (string, error)
	}{
		{"checkpoint", ckpt, func(data []byte) (string, error) {
			got, ts, err := decodeCheckpoint(bytes.NewReader(data))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("ts %d\n%s", ts, fingerprint(got)), nil
		}},
		{"snapshot", snap.Bytes(), func(data []byte) (string, error) {
			got, err := DecodeSnapshot(bytes.NewReader(data))
			if err != nil {
				return "", err
			}
			return fingerprint(got), nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.load(c.file)
			if err != nil {
				t.Fatalf("the unchanged file does not load: %v", err)
			}
			silent := 0
			for i := range c.file {
				flipped := bytes.Clone(c.file)
				flipped[i] ^= 0xff
				if got, err := c.load(flipped); err == nil && got != want {
					silent++
				}
			}
			if silent > 0 {
				t.Fatalf("%d of %d single-byte flips loaded into a different database", silent, len(c.file))
			}
		})
	}
}
