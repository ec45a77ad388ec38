package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spatialsim/internal/faultinject"
)

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.bin")
	fd, err := CreateFileDisk(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := fd.Allocate()
	b := fd.Allocate()
	if a != 0 || b != 1 {
		t.Fatalf("page ids %d, %d", a, b)
	}
	if err := fd.Write(b, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Allocated-but-never-written pages read as zeros (the file may not
	// extend that far yet).
	data, err := fd.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if v != 0 {
			t.Fatalf("unwritten page byte %d = %d", i, v)
		}
	}
	data, err = fd.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:5]) != "hello" || data[5] != 0 {
		t.Fatalf("page contents %q", data[:8])
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Read(PageID(2)); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := fd.Write(a, make([]byte, 257)); !errors.Is(err, ErrPageTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen read-only: same pages, writes rejected.
	ro, err := OpenFileDisk(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.NumPages() != 2 {
		t.Fatalf("reopened pages = %d", ro.NumPages())
	}
	data, err = ro.Read(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:5]) != "hello" {
		t.Fatalf("reopened page contents %q", data[:8])
	}
	if err := ro.Write(a, []byte("x")); err == nil {
		t.Fatal("write accepted on read-only file disk")
	}
	if st := ro.Stats(); st.PageReads == 0 || st.SimulatedReadTime != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOpenFileDiskRejectsTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.bin")
	fd, err := CreateFileDisk(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	fd.Allocate()
	if err := fd.Write(0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	fd.Close()
	// 128-byte pages, but we truncate the file to 100 bytes: a torn write.
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileDisk(path, 128); err == nil {
		t.Fatal("torn file accepted")
	}
}

func TestBufferPoolOverFileDisk(t *testing.T) {
	fd, err := CreateFileDisk(filepath.Join(t.TempDir(), "pool.bin"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	for i := 0; i < 4; i++ {
		id := fd.Allocate()
		if err := fd.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	pool := NewBufferPool(fd, 2)
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			data, err := pool.Get(PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != byte(i+1) {
				t.Fatalf("page %d contents %d", i, data[0])
			}
		}
	}
	if st := pool.Stats(); st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("pool never exercised the file disk: %+v", st)
	}
}

// TestFileDiskWritePagesTornRun pins the run write's fault seam: a clean run
// lands every page with one write, and a torn injection lands a proper
// prefix of the run and reports the failure.
func TestFileDiskWritePagesTornRun(t *testing.T) {
	const ps = 256
	run := make([]byte, 3*ps)
	for i := range run {
		run[i] = byte(i%251) + 1
	}
	path := filepath.Join(t.TempDir(), "pages.bin")
	fd, err := CreateFileDisk(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	if err := fd.WritePages(fd.Allocate(), run[:ps+1]); err == nil {
		t.Fatal("a run that is not a whole number of pages was accepted")
	}
	if err := fd.WritePages(0, run); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("run past the allocated pages: %v", err)
	}
	fd.Allocate()
	fd.Allocate()
	if err := fd.WritePages(0, run); err != nil {
		t.Fatal(err)
	}
	if st := fd.Stats(); st.PageWrites != 3 || st.BytesWritten != int64(len(run)) {
		t.Fatalf("stats %+v after one 3-page run", st)
	}

	faultinject.Enable(FaultFileDiskWrite, faultinject.Spec{TornRate: 1, Count: 1})
	defer faultinject.Disable(FaultFileDiskWrite)
	torn := filepath.Join(t.TempDir(), "torn.bin")
	td, err := CreateFileDisk(torn, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer td.Close()
	first := td.Allocate()
	td.Allocate()
	td.Allocate()
	if err := td.WritePages(first, run); err == nil {
		t.Fatal("torn run write reported success")
	}
	got, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(run) || !bytes.Equal(got, run[:len(got)]) {
		t.Fatalf("torn run landed %d bytes, want a proper prefix of %d", len(got), len(run))
	}
}
