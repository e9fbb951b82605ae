// Package codec persists MAD databases as binary snapshots: the schema
// (atom and link types in declaration order, each atom type with its type
// number) followed by every atom-type occurrence and every link-type
// occurrence, closed by a CRC32 of the file. The format is self-contained
// and versioned; Decode refuses a file whose checksum does not match and
// reconstructs a database whose atoms keep their identifiers, which keeps
// propagated (identity-sharing) result types intact.
//
// The format itself (MADSNAP3) lives in internal/storage, where
// Checkpoint embeds its body inside checkpoint files; this package
// remains the stable save/load API for whole-database snapshots.
package codec

import (
	"io"
	"os"

	"mad/internal/storage"
)

// Encode writes a snapshot of the database, as of its latest published
// commit, to out.
func Encode(db *storage.Database, out io.Writer) error {
	return storage.EncodeSnapshot(db, out)
}

// Decode reconstructs a database from a snapshot produced by Encode.
func Decode(in io.Reader) (*storage.Database, error) {
	return storage.DecodeSnapshot(in)
}

// Save writes a snapshot to path atomically: the bytes land in a
// temporary file that is fsynced and renamed over the target, so a crash
// mid-save never leaves a truncated snapshot behind.
func Save(db *storage.Database, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Encode(db, f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load reads a snapshot from path.
func Load(path string) (*storage.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
