package persist

// Tests for persist's own file I/O: the one-write segment save and its
// failpoints, the one-read and one-mmap opens, the page sizes Open accepts,
// and the corruption contract for a torn segment file.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"spatialsim/internal/faultinject"
)

// TestSegmentWriteFailpoints pins the save's fault seam: a torn write lands
// a proper prefix of the image and fails the save, a failed sync fails it
// with the whole image written, and neither leaves a snapshot behind. A
// clean save then lands the image byte for byte.
func TestSegmentWriteFailpoints(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shards := testShards(t, 300, 61)
	image := EncodeSegment(1, 0, shards, 512)
	path := filepath.Join(dir, segmentName(1))
	defer faultinject.Reset()

	faultinject.Enable(FaultSegmentWrite, faultinject.Spec{TornRate: 1, Count: 1})
	if err := s.SaveEpoch(1, 0, shards); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn segment write: SaveEpoch = %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(image) || !bytes.Equal(got, image[:len(got)]) {
		t.Fatalf("torn write landed %d bytes, want a proper prefix of %d", len(got), len(image))
	}
	faultinject.Disable(FaultSegmentWrite)

	faultinject.Enable(FaultSegmentSync, faultinject.Spec{ErrRate: 1, Count: 1})
	if err := s.SaveEpoch(1, 0, shards); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("failed segment sync: SaveEpoch = %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("before the failed sync the image should have landed whole (err %v)", err)
	}
	faultinject.Disable(FaultSegmentSync)
	if n := len(s.Snapshots()); n != 0 {
		t.Fatalf("failed saves left %d snapshot records", n)
	}

	if err := s.SaveEpoch(1, 0, shards); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("a clean save must write the encoded image byte for byte (err %v)", err)
	}
	rec, err := s.Recover(RecoverOptions{})
	if err != nil || rec.EpochSeq != 1 {
		t.Fatalf("recover after the clean save: %+v, %v", rec, err)
	}
}

// TestSegmentFileMappedMatchesHeap: the two opens of one segment file give
// the same bytes.
func TestSegmentFileMappedMatchesHeap(t *testing.T) {
	image, path := writeTestSegment(t)
	heap, err := openSegmentFile(path, 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	if heap.mapped || !bytes.Equal(heap.image, image) {
		t.Fatalf("heap open: mapped=%v, bytes equal=%v", heap.mapped, bytes.Equal(heap.image, image))
	}
	mapped, err := openSegmentFile(path, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.close()
	if mapped.mapped != MmapSupported() {
		t.Fatalf("mapped open: mapped=%v with MmapSupported()=%v", mapped.mapped, MmapSupported())
	}
	if !bytes.Equal(mapped.image, image) {
		t.Fatal("the mapped and heap opens of one file give different bytes")
	}
}

// TestSegmentMappingSurvivesUnlink: a mapping stays readable after its path
// is unlinked — segment GC unlinks files an older epoch may still serve from.
func TestSegmentMappingSurvivesUnlink(t *testing.T) {
	image, path := writeTestSegment(t)
	mapped, err := openSegmentFile(path, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mapped.image, image) {
		t.Fatal("the mapping's bytes differ from the file's after unlink")
	}
}

// TestHeapSegmentOpenRejectsTornFile and TestMappedSegmentOpenRejectsTornFile:
// each open refuses a file that is not a whole number of pages as ErrCorrupt,
// before reading or mapping any of it.
func TestHeapSegmentOpenRejectsTornFile(t *testing.T) {
	checkTornSegmentOpen(t, false)
}

func TestMappedSegmentOpenRejectsTornFile(t *testing.T) {
	checkTornSegmentOpen(t, true)
}

func checkTornSegmentOpen(t *testing.T, mapped bool) {
	t.Helper()
	image, path := writeTestSegment(t)
	if err := os.Truncate(path, int64(len(image))-100); err != nil {
		t.Fatal(err)
	}
	f, err := openSegmentFile(path, 4096, mapped)
	if !errors.Is(err, ErrCorrupt) {
		f.close()
		t.Fatalf("mapped=%v: open of a torn file = %v, want ErrCorrupt", mapped, err)
	}
	if f.image != nil || f.mapped {
		t.Fatalf("mapped=%v: a refused open returned an image (mapped=%v)", mapped, f.mapped)
	}
}

// writeTestSegment saves an encoded segment of 4096-byte pages to a fresh
// file and returns its image and path.
func writeTestSegment(t *testing.T) ([]byte, string) {
	t.Helper()
	image := EncodeSegment(2, 5, testShards(t, 400, 67), 4096)
	path := filepath.Join(t.TempDir(), segmentName(2))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return image, path
}

// TestOpenRefusesUndecodablePageSize: Open accepts exactly the page sizes
// the segment decoder reads back. A size it accepted before but could not
// recover (16: below the header; 4100: record offsets off the 8-byte grid)
// is refused up front; a valid non-default size saves and recovers carried
// epochs in both modes.
func TestOpenRefusesUndecodablePageSize(t *testing.T) {
	for _, ps := range []int{16, 40, 4100, 4097, maxPageSize + 8} {
		if s, err := Open(t.TempDir(), Options{PageSize: ps}); err == nil {
			s.Close()
			t.Fatalf("Open accepted page size %d", ps)
		}
	}
	for _, ps := range []int{0, 48, 512} {
		dir := t.TempDir()
		s, err := Open(dir, Options{PageSize: ps})
		if err != nil {
			t.Fatalf("page size %d: %v", ps, err)
		}
		tl := newTortureTiles(8, 40)
		if err := s.SaveEpoch(1, 0, tl.save(1).shards); err != nil {
			t.Fatal(err)
		}
		tl.replace(3, 2)
		step := tl.save(2)
		if err := s.SaveEpoch(2, 0, step.shards); err != nil {
			t.Fatal(err)
		}
		if snaps := s.Snapshots(); len(snaps[len(snaps)-1].Refs) != 1 {
			t.Fatalf("page size %d: epoch 2 references %v, want segment 1", ps, snaps[len(snaps)-1].Refs)
		}
		for _, mapped := range []bool{false, true} {
			rec, err := s.Recover(RecoverOptions{Mapped: mapped})
			if err != nil {
				t.Fatalf("page size %d, mapped=%v: %v", ps, mapped, err)
			}
			if rec.EpochSeq != 2 || rec.SkippedCorrupt != 0 || !sameSet(itemSet(t, rec.Shards), step.want) {
				t.Fatalf("page size %d, mapped=%v: recovered epoch %d (skipped %d), want epoch 2 exactly",
					ps, mapped, rec.EpochSeq, rec.SkippedCorrupt)
			}
			if rec.Mapping != nil {
				rec.Mapping.Close()
			}
		}
		s.Close()
	}
}

// TestTornSegmentIsCorrupt: a segment file that is not a whole number of
// pages is a torn write, and recovery reports it as ErrCorrupt in both
// modes, whether the torn file is a snapshot's own segment or one its
// references point into — and reads the directory without changing a byte.
func TestTornSegmentIsCorrupt(t *testing.T) {
	for _, tc := range []struct {
		name string
		seg  uint64 // the segment to tear; epoch 2 references segment 1
		size func(int64) int64
	}{
		{"short-own", 2, func(n int64) int64 { return n - 100 }},
		{"short-referenced", 1, func(n int64) int64 { return n - 100 }},
		{"empty", 1, func(int64) int64 { return 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tl := newTortureTiles(4, 40)
			if err := s.SaveEpoch(1, 0, tl.save(1).shards); err != nil {
				t.Fatal(err)
			}
			tl.replace(0, 2)
			if err := s.SaveEpoch(2, 0, tl.save(2).shards); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segmentName(tc.seg))
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, tc.size(st.Size())); err != nil {
				t.Fatal(err)
			}
			if tc.seg == 2 {
				// Epoch 1 still verifies: tear it too, so nothing survives.
				p1 := filepath.Join(dir, segmentName(1))
				st1, err := os.Stat(p1)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(p1, st1.Size()-100); err != nil {
					t.Fatal(err)
				}
			}
			before := dirFiles(t, dir)
			for _, mapped := range []bool{false, true} {
				rec, err := s.Recover(RecoverOptions{Mapped: mapped})
				if !errors.Is(err, ErrCorrupt) {
					if rec != nil && rec.Mapping != nil {
						rec.Mapping.Close()
					}
					t.Fatalf("mapped=%v: Recover = %v, want ErrCorrupt", mapped, err)
				}
				sameFiles(t, dir, before)
			}
		})
	}
}
