// Package durable publishes files so that a reader sees either the old
// content or the whole new content, never a torn write. Every persisted
// job file and disk artifact goes through WriteFile.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile streams write into a temp file in path's directory, syncs
// and closes it, then renames it over path. On any failure the temp file
// is removed and path keeps its old content (or stays absent).
//
// The sync comes before the rename: without it, a crash after the rename
// can leave a zero-length or truncated file in place of the data. The
// directory itself is not synced, so a power loss just after the rename
// can still lose the new name; the old content (or absence) survives.
//
// The temp name ends in ".tmp", never in a suffix a directory scan
// treats as a published file (".rig.gob", ".spec.json").
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
