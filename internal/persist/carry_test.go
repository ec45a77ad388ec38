package persist

// Tests for carried snapshots: a save writes only the images the last
// successful save did not persist and references the rest. They pin the
// disk bound (referenced image bytes at most twice the live ones), the
// identity rule (only a successful save's images are ever referenced),
// recovery across several segment files in both modes, the corruption edge
// sharing introduces, and the metrics series.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/rtree"
)

// segmentPayload reads the payload length from a segment file's header.
func segmentPayload(t *testing.T, dir string, epoch uint64) int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(epoch)))
	if err != nil {
		t.Fatal(err)
	}
	info, err := DecodeSegmentInfo(data, len(data))
	if err != nil {
		t.Fatal(err)
	}
	return int64(info.PayloadLen)
}

// checkRecovered recovers s in both modes and asserts the newest snapshot
// comes back as epoch with exactly want's content, spanning files segment
// files in mapped mode.
func checkRecovered(t *testing.T, s *Store, epoch uint64, want *tortureTiles, files int) {
	t.Helper()
	for _, mapped := range []bool{false, true} {
		rec, err := s.Recover(RecoverOptions{Mapped: mapped})
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		if rec.EpochSeq != epoch || rec.SkippedCorrupt != 0 {
			t.Fatalf("mapped=%v: recovered epoch %d (skipped %d), want %d", mapped, rec.EpochSeq, rec.SkippedCorrupt, epoch)
		}
		if !sameSet(itemSet(t, rec.Shards), want.save(epoch).want) {
			t.Fatalf("mapped=%v: epoch %d content differs", mapped, epoch)
		}
		for i, sh := range rec.Shards {
			if sh.Ref != nil || sh.RTree == nil || sh.Bounds != want.shards[i].Bounds {
				t.Fatalf("mapped=%v: shard %d not resolved to its image", mapped, i)
			}
		}
		if mapped {
			if rec.Mapping.Files() != files {
				t.Fatalf("mapped recovery spans %d files, want %d", rec.Mapping.Files(), files)
			}
			if MmapSupported() && rec.ZeroCopyShards != len(rec.Shards) {
				t.Fatalf("%d of %d shards zero-copy", rec.ZeroCopyShards, len(rec.Shards))
			}
			if err := rec.Mapping.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSaveEpochCarriesCleanImages(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tl := newTortureTiles(8, 40)
	if err := s.SaveEpoch(1, 0, tl.save(1).shards); err != nil {
		t.Fatal(err)
	}
	whole := s.Stats().SnapshotBytes
	tl.replace(3, 2)
	if err := s.SaveEpoch(2, 0, tl.save(2).shards); err != nil {
		t.Fatal(err)
	}
	if n := s.Stats().SnapshotBytes - whole; n >= whole/2 {
		t.Fatalf("saving one dirty tile of 8 wrote %d bytes; the whole segment is %d", n, whole)
	}
	if s.images.written != 9 || s.images.carried != 7 || s.images.relocated != 0 {
		t.Fatalf("images written/carried/relocated = %+v, want 9/7/0", s.images)
	}
	snaps := s.Snapshots()
	if got := snaps[len(snaps)-1].Refs; len(got) != 1 || got[0] != 1 {
		t.Fatalf("epoch 2 lists referenced segments %v, want [1]", got)
	}
	checkRecovered(t, s, 2, tl, 2)

	// Saving the same images again references them where they are: still
	// one record per shard, never a reference to a reference.
	if err := s.SaveEpoch(3, 0, tl.save(3).shards); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := DecodeSegment(data, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		want := uint64(1) // tile 3 was last written by epoch 2
		if i == 3 {
			want = 2
		}
		if r.Ref == nil || r.Ref.Segment != want {
			t.Fatalf("epoch 3 shard %d: %+v, want a reference into segment %d", i, r.Ref, want)
		}
	}
	checkRecovered(t, s, 3, tl, 3)

	// A store reopened on the directory has carried nothing yet: its first
	// save is whole.
	s2, err := Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.SaveEpoch(4, 0, tl.save(4).shards); err != nil {
		t.Fatal(err)
	}
	if s2.images.carried != 0 || s2.Stats().SnapshotBytes != whole {
		t.Fatalf("first save after reopen carried %d images, wrote %d bytes (whole %d)",
			s2.images.carried, s2.Stats().SnapshotBytes, whole)
	}
	// Epoch 3's references keep segments 1 and 2 alive while it is retained.
	for _, e := range []uint64{1, 2, 3, 4} {
		if _, err := os.Stat(filepath.Join(dir, segmentName(e))); err != nil {
			t.Fatalf("segment %d collected while a retained snapshot references it: %v", e, err)
		}
	}
}

// TestCarriedBytesBounded runs many saves that each dirty about a quarter
// of 64 tiles (the bench's timestep shape) and checks, after every save,
// that the image bytes held by the segments the snapshot uses are at most
// twice the bytes of its images, that only those segments stay on disk,
// and that a save writes well under half a whole segment on average.
func TestCarriedBytesBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	tl := newTortureTiles(64, 40)
	refSpan := int64(shardRecordHeaderSize + align8(refBlobSize))
	epochs := 60
	if testing.Short() {
		epochs = 20
	}
	var written, whole int64
	for epoch := uint64(1); epoch <= uint64(epochs); epoch++ {
		if epoch > 1 {
			for _, i := range rng.Perm(64)[:8+rng.Intn(17)] {
				tl.replace(i, int64(epoch))
			}
		}
		shards := tl.save(epoch).shards
		before, carried := s.Stats().SnapshotBytes, s.images.carried
		if err := s.SaveEpoch(epoch, 0, shards); err != nil {
			t.Fatal(err)
		}
		if epoch > 1 {
			written += s.Stats().SnapshotBytes - before
			whole += int64(len(EncodeSegment(epoch, 0, shards, 512)))
		}

		var live int64
		for _, sh := range shards {
			live += recordSpan(sh)
		}
		snaps := s.Snapshots()
		newest := snaps[len(snaps)-1]
		held := segmentPayload(t, dir, epoch) - (s.images.carried-carried)*refSpan
		for _, seg := range newest.Refs {
			held += segmentPayload(t, dir, seg)
		}
		if held > 2*live {
			t.Fatalf("epoch %d: segments hold %d image bytes for %d live", epoch, held, live)
		}

		keep := make(map[string]bool)
		for _, sr := range snaps {
			keep[sr.Name] = true
			for _, seg := range sr.Refs {
				keep[segmentName(seg)] = true
			}
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".seg") && !keep[e.Name()] {
				t.Fatalf("epoch %d: %s survived GC with no retained snapshot using it", epoch, e.Name())
			}
		}
	}
	if s.images.relocated == 0 {
		t.Fatal("no save relocated the images of a sparse segment")
	}
	if ratio := float64(written) / float64(whole); ratio > 0.5 {
		t.Fatalf("saves wrote %.2f of a whole segment on average, want <= 0.5", ratio)
	}
	checkRecovered(t, s, uint64(epochs), tl, 1+len(s.Snapshots()[1].Refs))
}

// TestSharedSegmentCorruption pins the robustness edge carrying changes:
// the newest segment still falls back one generation, but a segment both
// retained generations reference takes both down — an ErrCorrupt-wrapped
// error in heap mode, a structural error in mapped mode, never a panic.
func TestSharedSegmentCorruption(t *testing.T) {
	setup := func(t *testing.T) (string, *Store, SnapshotRecord) {
		dir := t.TempDir()
		s, err := Open(dir, Options{PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		tl := newTortureTiles(8, 40)
		for epoch := uint64(1); epoch <= 3; epoch++ {
			tl.replace(int(epoch), int64(epoch))
			if err := s.SaveEpoch(epoch, 0, tl.save(epoch).shards); err != nil {
				t.Fatal(err)
			}
		}
		snaps := s.Snapshots()
		if len(snaps) != 2 || len(snaps[0].Refs) == 0 || snaps[0].Refs[0] != 1 || snaps[1].Refs[0] != 1 {
			t.Fatalf("both retained snapshots must reference segment 1: %+v", snaps)
		}
		return dir, s, snaps[1]
	}
	flip := func(t *testing.T, dir string, epoch uint64, off int) {
		t.Helper()
		path := filepath.Join(dir, segmentName(epoch))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recoverBoth := func(s *Store) (heap, mapped *Recovery, herr, merr error) {
		heap, herr = s.Recover(RecoverOptions{})
		mapped, merr = s.Recover(RecoverOptions{Mapped: true})
		if mapped != nil {
			mapped.Mapping.Close()
		}
		return heap, mapped, herr, merr
	}

	t.Run("newest", func(t *testing.T) {
		dir, s, newest := setup(t)
		flip(t, dir, newest.EpochSeq, 24) // shard count
		heap, mapped, herr, merr := recoverBoth(s)
		if herr != nil || merr != nil || heap.EpochSeq != 2 || mapped.EpochSeq != 2 || heap.SkippedCorrupt != 1 {
			t.Fatalf("corrupt newest segment: heap %v (%v), mapped %v (%v); want a fallback to epoch 2",
				heap, herr, mapped, merr)
		}
	})
	t.Run("shared-structure", func(t *testing.T) {
		dir, s, _ := setup(t)
		flip(t, dir, 1, 512+56) // shard 0's blob length in segment 1
		_, _, herr, merr := recoverBoth(s)
		if !errors.Is(herr, ErrCorrupt) {
			t.Fatalf("heap recovery over a corrupt shared segment: %v, want ErrCorrupt", herr)
		}
		if merr == nil {
			t.Fatal("mapped recovery accepted a structurally corrupt shared segment")
		}
	})
	t.Run("shared-leaf", func(t *testing.T) {
		dir, s, _ := setup(t)
		size := segmentPayload(t, dir, 1)
		flip(t, dir, 1, 512+int(size)-16) // inside the last record's leaf data
		_, mapped, herr, merr := recoverBoth(s)
		if !errors.Is(herr, ErrCorrupt) {
			t.Fatalf("heap recovery over a flipped leaf byte: %v, want ErrCorrupt", herr)
		}
		// Mapped mode trusts leaf bytes: it may serve them, but never faults.
		if merr == nil && mapped.EpochSeq != 3 {
			t.Fatalf("mapped recovery served epoch %d", mapped.EpochSeq)
		}
	})
	t.Run("missing", func(t *testing.T) {
		dir, s, _ := setup(t)
		if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil {
			t.Fatal(err)
		}
		if _, _, herr, merr := recoverBoth(s); herr == nil || merr == nil {
			t.Fatalf("recovery without a referenced segment: heap %v, mapped %v", herr, merr)
		}
	})
}

// TestFailedSaveDoesNotPoisonCarrying fails a save partway through its
// segment: the images it meant to write were never persisted, and the save
// drops the carry table, so the store keeps no retired image reachable and
// the next save is whole. Recovering it, and the carrying save after it,
// must give back each epoch exactly.
func TestFailedSaveDoesNotPoisonCarrying(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tl := newTortureTiles(8, 40)
	if err := s.SaveEpoch(1, 0, tl.save(1).shards); err != nil {
		t.Fatal(err)
	}
	tl.replace(2, 2)
	tl.replace(5, 2)
	failed := tl.save(2).shards

	budget := &atomic.Int64{}
	budget.Store(700) // past the header page, inside the first record
	if err := s.SetFileHooks(func(path string) (BackingFile, error) {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil || !strings.HasSuffix(path, ".seg") {
			return f, err
		}
		return &failingFile{f: f, budget: budget}, nil
	}, osOpen); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveEpoch(2, 0, failed); err == nil {
		t.Fatal("save through a failing segment file succeeded")
	}
	if s.carry != nil {
		t.Fatal("a failed save kept the carry table")
	}
	if err := s.SetFileHooks(osCreate, osOpen); err != nil {
		t.Fatal(err)
	}

	tl.replace(6, 3)
	if err := s.SaveEpoch(3, 0, tl.save(3).shards); err != nil {
		t.Fatal(err)
	}
	snaps := s.Snapshots()
	if got := snaps[len(snaps)-1].Refs; len(got) != 0 {
		t.Fatalf("epoch 3 after a failed save references segments %v, want none", got)
	}
	if s.images.written != 8+8 || s.images.carried != 0 {
		t.Fatalf("images written/carried = %d/%d, want 16/0", s.images.written, s.images.carried)
	}
	checkRecovered(t, s, 3, tl, 1)

	// Carrying resumes from the whole save: epoch 4 writes tile 1 and
	// references the other seven in segment 3.
	tl.replace(1, 4)
	if err := s.SaveEpoch(4, 0, tl.save(4).shards); err != nil {
		t.Fatal(err)
	}
	snaps = s.Snapshots()
	if got := snaps[len(snaps)-1].Refs; len(got) != 1 || got[0] != 3 {
		t.Fatalf("epoch 4 references segments %v, want only [3]", got)
	}
	if s.images.written != 16+1 || s.images.carried != 7 {
		t.Fatalf("images written/carried = %d/%d, want 17/7", s.images.written, s.images.carried)
	}
	checkRecovered(t, s, 4, tl, 2)
}

func TestStoreRegistersSnapshotSeries(t *testing.T) {
	s, err := Open(t.TempDir(), Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	tl := newTortureTiles(4, 40)
	for epoch := uint64(1); epoch <= 2; epoch++ {
		tl.replace(0, int64(epoch))
		if err := s.SaveEpoch(epoch, 0, tl.save(epoch).shards); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	reg.WritePrometheus(&out)
	for _, line := range []string{
		"spatial_snapshot_images_written_total 5",
		"spatial_snapshot_images_carried_total 3",
		"spatial_snapshot_images_relocated_total 0",
	} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", line, out.String())
		}
	}
	if !strings.Contains(out.String(), "spatial_snapshot_segment_bytes_total ") {
		t.Fatal("/metrics lacks spatial_snapshot_segment_bytes_total")
	}
}

// TestPreviousFormatIsRefused builds data directories this build cannot
// read and checks that the store refuses each loudly: one as the previous
// format left it — version 2 segments, snapshot records that end after the
// segment name — and one whose every snapshot holds the retired item-list
// record (kind 2). Open replays every record (none is mistaken for a torn
// tail, which would let the next append overwrite the manifest and the next
// save collect every segment), Recover fails in both modes with an
// ErrCorrupt naming what it refused, and no file changes.
func TestPreviousFormatIsRefused(t *testing.T) {
	tl := newTortureTiles(4, 40)
	for _, tc := range []struct {
		refused string
		image   func(epoch uint64) []byte
		record  func(manifest []byte, sr SnapshotRecord) []byte
	}{
		{"version 2", func(epoch uint64) []byte {
			tl.replace(0, int64(epoch))
			image := EncodeSegment(epoch, epoch, tl.save(epoch).shards, 512)
			binary.LittleEndian.PutUint32(image[4:8], 2)
			return image
		}, func(manifest []byte, sr SnapshotRecord) []byte {
			body := []byte{recSnapshot}
			body = appendU64(body, sr.EpochSeq)
			body = appendU64(body, sr.BatchSeq)
			body = appendU64(body, uint64(sr.SegSize))
			body = appendU32(body, sr.SegCRC)
			body = binary.LittleEndian.AppendUint16(body, uint16(len(sr.Name)))
			body = append(body, sr.Name...)
			return appendRecord(manifest, body)
		}},
		{"kind 2", func(epoch uint64) []byte {
			return itemListSegment(epoch, epoch, testItems(30, int64(epoch)), 512)
		}, encodeSnapshotRecord},
	} {
		t.Run(tc.refused, func(t *testing.T) {
			dir := t.TempDir()
			var manifest []byte
			for epoch := uint64(1); epoch <= 2; epoch++ {
				manifest = writeSnapshot(t, dir, manifest, tc.record, epoch, epoch, tc.image(epoch))
			}
			manifest = encodeBatchRecord(manifest, BatchRecord{Seq: 3, Updates: []Update{{ID: 1, Delete: true}}})
			if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)

			s, err := Open(dir, Options{PageSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			if snaps := s.Snapshots(); len(snaps) != 2 || s.off != int64(len(manifest)) {
				t.Fatalf("Open replayed %d snapshot records and %d of %d manifest bytes", len(snaps), s.off, len(manifest))
			}
			for _, mapped := range []bool{false, true} {
				rec, err := s.Recover(RecoverOptions{Mapped: mapped})
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.refused) {
					t.Fatalf("mapped=%v: recovery = %+v, %v; want an ErrCorrupt naming %s", mapped, rec, err, tc.refused)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			sameFiles(t, dir, before)
		})
	}
}

// dirFiles reads every file of dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// sameFiles fails unless dir holds exactly the files of before, byte for
// byte.
func sameFiles(t *testing.T, dir string, before map[string][]byte) {
	t.Helper()
	after := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("the directory changed: %d files, was %d", len(after), len(before))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("%s changed", name)
		}
	}
}

// itemListSegment builds a segment image as the previous build wrote a
// shard of a non-R-Tree family: version 3, one kind 2 record whose blob is
// the item count and the items. This build writes no such record.
func itemListSegment(epoch, batch uint64, items []index.Item, pageSize int) []byte {
	blob := appendU32(nil, uint32(len(items)))
	for _, it := range items {
		blob = appendItem(blob, it)
	}
	payload := append([]byte{2, 0, 0, 0, 0, 0, 0, 0}, appendBox(nil, boundsOf(items))...)
	payload = appendU64(payload, uint64(len(blob)))
	payload = append(payload, blob...)
	payload = append(payload, make([]byte, align8(len(payload))-len(payload))...)
	image := appendU32(nil, segmentMagic)
	image = appendU32(image, segmentVersion)
	image = appendU64(image, epoch)
	image = appendU64(image, batch)
	image = appendU32(image, 1)
	image = appendU32(image, uint32(pageSize))
	image = appendU64(image, uint64(len(payload)))
	image = appendU32(image, crc32Checksum(payload))
	image = append(image, make([]byte, pageSize-len(image))...)
	image = append(image, payload...)
	return append(image, make([]byte, (pageSize-len(image)%pageSize)%pageSize)...)
}

// writeSnapshot writes image as epoch's segment file in dir and appends its
// snapshot record to manifest through record.
func writeSnapshot(t *testing.T, dir string, manifest []byte, record func([]byte, SnapshotRecord) []byte, epoch, batch uint64, image []byte) []byte {
	t.Helper()
	name := segmentName(epoch)
	if err := os.WriteFile(filepath.Join(dir, name), image, 0o644); err != nil {
		t.Fatal(err)
	}
	return record(manifest, SnapshotRecord{
		EpochSeq: epoch, BatchSeq: batch, SegSize: int64(len(image)), SegCRC: imageCRC(image), Name: name,
	})
}

// TestRetiredItemListRecordFallsBack: when only the newest snapshot holds
// an item-list record, recovery skips it as corrupt and recovers the
// all-R-Tree snapshot before it plus the WAL tail, which together hold the
// same content.
func TestRetiredItemListRecordFallsBack(t *testing.T) {
	dir := t.TempDir()
	items := testItems(200, 21)
	s, err := Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveEpoch(1, 0, []ShardRecord{{Bounds: boundsOf(items), RTree: rtree.FreezeItems(items, rtree.Config{})}}); err != nil {
		t.Fatal(err)
	}
	moved := index.Item{ID: items[0].ID, Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}
	batch := []Update{{ID: moved.ID, Box: moved.Box}, {ID: items[1].ID, Delete: true}}
	if _, err := s.LogBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	final := append([]index.Item{moved}, items[2:]...)
	manifest, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	manifest = writeSnapshot(t, dir, manifest, encodeSnapshotRecord, 2, 1, itemListSegment(2, 1, final, 512))
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	s, err = Open(dir, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		rec, err := s.Recover(RecoverOptions{Mapped: mapped})
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		if rec.EpochSeq != 1 || rec.SkippedCorrupt != 1 || len(rec.Pending) != 1 || rec.Pending[0].Seq != 1 {
			t.Fatalf("mapped=%v: recovered epoch %d, skipped %d, %d pending batches; want epoch 1, 1 skipped, batch 1 pending",
				mapped, rec.EpochSeq, rec.SkippedCorrupt, len(rec.Pending))
		}
		got := itemSet(t, rec.Shards)
		for _, u := range rec.Pending[0].Updates {
			if u.Delete {
				delete(got, u.ID)
			} else {
				got[u.ID] = u.Box
			}
		}
		if !maps.Equal(got, wantSet(final)) {
			t.Fatalf("mapped=%v: snapshot plus WAL tail holds %d items, want the %d the item-list snapshot held", mapped, len(got), len(final))
		}
		if rec.Mapping != nil {
			rec.Mapping.Close()
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, dir, before)
}
