package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// assertOnly fails unless dir holds exactly the named entries: no temp
// file outlives a WriteFile call, successful or not.
func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if len(got) != len(names) {
		t.Fatalf("dir holds %q, want %q", got, names)
	}
	for i := range names {
		if got[i] != names[i] {
			t.Fatalf("dir holds %q, want %q", got, names)
		}
	}
}

// TestWriteFileReplaces: a successful write replaces the destination's
// content exactly, and leaves nothing else behind. While the write is in
// flight the temp file ends in ".tmp", so directory scans for published
// suffixes (".spec.json", ".rig.gob") never pick it up.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.spec.json")
	if err := os.WriteFile(path, []byte("old content, longer than the new one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, func(w io.Writer) error {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.Name() != "x.spec.json" && filepath.Ext(e.Name()) != ".tmp" {
				t.Errorf("in-flight temp file %q does not end in .tmp", e.Name())
			}
		}
		return writeString("new\n")(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new\n" {
		t.Errorf("content %q, want %q", got, "new\n")
	}
	assertOnly(t, dir, "x.spec.json")
}

// TestWriteFileWriterError: a write that fails partway returns its error,
// leaves the destination as it was (present or absent), and removes the
// partial temp file.
func TestWriteFileWriterError(t *testing.T) {
	boom := errors.New("disk full")
	failing := func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial"); err != nil {
			return err
		}
		return boom
	}

	t.Run("existing destination", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.rig.gob")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(path, failing); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Errorf("destination changed: %q, %v", got, err)
		}
		assertOnly(t, dir, "a.rig.gob")
	})
	t.Run("absent destination", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.rig.gob")
		if err := WriteFile(path, failing); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
		assertOnly(t, dir)
	})
}

// TestWriteFileRenameError: when the destination is a non-empty
// directory the rename fails; its error comes back and the temp file is
// removed.
func TestWriteFileRenameError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.report.json")
	if err := os.MkdirAll(filepath.Join(path, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, writeString("report"))
	var le *os.LinkError
	if !errors.As(err, &le) || le.Op != "rename" {
		t.Fatalf("err = %v, want a rename error", err)
	}
	assertOnly(t, dir, "r.report.json")
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Errorf("destination directory disturbed: %v", err)
	}
}
