// Package persist is the durability layer of the serving subsystem: it
// writes each published epoch's frozen shards into page-aligned segment
// files through the storage layer's page devices, journals update batches
// into a small append-only manifest/WAL between snapshots, and recovers the
// newest checksum-complete epoch (plus the WAL tail) after a crash or
// restart.
//
// The design splits along the same seam as the serving layer itself:
//
//   - segments are immutable bulk images — one per epoch, written once,
//     synced, and only then referenced from the manifest, so a half-written
//     segment is invisible to recovery;
//   - the manifest is the tiny mutable part: an append-only record log whose
//     torn tail is cut at the first bad checksum, rotated via
//     write-temp-then-rename after each snapshot so it never grows beyond
//     the retained snapshots and their uncovered batches.
//
// Recovery therefore never serves bytes that fail verification: a segment
// loads only if its size matches the manifest record that names it and
// every shard blob opens cleanly; otherwise recovery falls back to the
// previous retained snapshot, and only if no snapshot survives does it
// report corruption instead of serving torn data.
//
// There is one read path for the shards a segment holds: every R-Tree shard
// is an overlay of the segment image (rtree.OverlayCompact), never a decoded
// copy. The two recovery modes differ only in the image source and the
// checksum: heap mode reads the file onto the heap and verifies the
// whole-image and payload CRCs first; mapped mode (RecoverOptions.Mapped)
// mmaps it read-only and validates only the O(1) envelope, so recovery is
// O(open) and no page faults until a query touches it — structural
// corruption is still rejected (the overlay bounds-checks the slab
// geometry), and the mapping is released when the recovered epoch retires.
// The format is little-endian, so Open refuses big-endian hosts.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/rtree"
	"spatialsim/internal/storage"
)

// FaultManifestAppend instruments manifest/WAL record appends (torn-write
// capable): chaos tests arm it to make batch journaling fail or tear exactly
// where a crash mid-append would.
const FaultManifestAppend = "persist.manifest.append"

// Update is one element mutation of an ingest batch: an upsert of (ID, Box),
// or a removal when Delete is set. It is the WAL's unit of replay;
// internal/serve aliases it as its own batch element type.
type Update struct {
	ID     int64
	Box    geom.AABB
	Delete bool
}

// Options configures a Store.
type Options struct {
	// PageSize is the segment page size in bytes (<= 0 picks 4096, the
	// storage layer's default).
	PageSize int
	// PoolPages is the buffer-pool capacity used when reading segments back
	// (<= 0 picks 64).
	PoolPages int
	// RetainSnapshots is how many snapshot generations (segment files and
	// manifest records) are kept; older ones are garbage collected after
	// rotation. Minimum (and default) 2: the one just written plus the
	// fallback recovery target.
	RetainSnapshots int
	// NoSyncWAL skips the manifest sync after each batch append, trading the
	// durability of the newest batches for ingest throughput (snapshots
	// still sync unconditionally).
	NoSyncWAL bool
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = 4096
	}
	if o.PoolPages <= 0 {
		o.PoolPages = 64
	}
	if o.RetainSnapshots < 2 {
		o.RetainSnapshots = 2
	}
	return o
}

// StoreStats is a snapshot of the store's durability counters.
type StoreStats struct {
	BatchesLogged  int64  `json:"batches_logged"`
	SnapshotsSaved int64  `json:"snapshots_saved"`
	SnapshotBytes  int64  `json:"snapshot_bytes"`
	Rotations      int64  `json:"rotations"`
	LastEpochSaved uint64 `json:"last_epoch_saved"`
	LastBatchSeq   uint64 `json:"last_batch_seq"`
}

// Store manages one data directory: the MANIFEST log plus the epoch-*.seg
// segment files. All methods are safe for concurrent use; appends and
// snapshots serialize on an internal mutex (the serving layer calls LogBatch
// under its staging lock anyway, to keep WAL order identical to staging
// order).
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	manifest  storage.BackingFile
	off       int64 // append offset: end of the well-formed prefix
	batchSeq  uint64
	snapshots []SnapshotRecord
	stats     StoreStats

	// createFile is the crash-injection seam: segment files, manifest
	// rotations and appends all go through it. Tests substitute files that
	// fail after a randomized number of bytes.
	createFile func(path string) (storage.BackingFile, error)
	openFile   func(path string) (storage.BackingFile, int64, error)
}

func osCreate(path string) (storage.BackingFile, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func osOpen(path string) (storage.BackingFile, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

const manifestName = "MANIFEST"

// Open opens (creating if needed) the data directory and replays the
// manifest to learn the last batch sequence and the retained snapshots. It
// never loads segments — Recover does that on demand. On a big-endian host
// it returns an error wrapping rtree.ErrOverlayUnsupported: segments could
// be written but never read back.
func Open(dir string, opts Options) (*Store, error) {
	if !rtree.OverlaySupported() {
		return nil, fmt.Errorf("persist: open %s: %w", dir, rtree.ErrOverlayUnsupported)
	}
	s := &Store{
		dir:        dir,
		opts:       opts.withDefaults(),
		createFile: osCreate,
		openFile:   osOpen,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return s, s.reopenManifest()
}

// reopenManifest (re)opens the manifest file and replays it into the store's
// in-memory view. Caller holds s.mu (or is the constructor).
func (s *Store) reopenManifest() error {
	if s.manifest != nil {
		s.manifest.Close()
		s.manifest = nil
	}
	f, size, err := s.openFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return err
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			f.Close()
			return err
		}
	}
	m := decodeManifest(data)
	s.manifest = f
	s.off = m.validLen
	s.snapshots = m.snapshots
	s.batchSeq = 0
	for _, sr := range m.snapshots {
		if sr.BatchSeq > s.batchSeq {
			s.batchSeq = sr.BatchSeq
		}
	}
	for _, br := range m.batches {
		if br.Seq > s.batchSeq {
			s.batchSeq = br.Seq
		}
	}
	s.stats.LastBatchSeq = s.batchSeq
	if n := len(s.snapshots); n > 0 {
		s.stats.LastEpochSaved = s.snapshots[n-1].EpochSeq
	}
	return nil
}

// SetFileHooks replaces the functions the store opens files through and
// reopens the manifest through them. It is the crash-injection seam of the
// recovery torture tests (files that fail after a randomized number of
// written bytes); production code never calls it.
func (s *Store) SetFileHooks(
	create func(path string) (storage.BackingFile, error),
	open func(path string) (storage.BackingFile, int64, error),
) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.createFile, s.openFile = create, open
	return s.reopenManifest()
}

// Close closes the manifest handle. Segments are only open transiently.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return nil
	}
	err := s.manifest.Close()
	s.manifest = nil
	return err
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the durability counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// LogBatch appends one update batch to the WAL and returns its batch
// sequence number. The caller must invoke LogBatch in the same order the
// batches are applied to its staging state — the sequence number is the
// replay order.
func (s *Store) LogBatch(updates []Update) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return 0, fmt.Errorf("persist: store closed")
	}
	seq := s.batchSeq + 1
	rec := encodeBatchRecord(nil, BatchRecord{Seq: seq, Updates: updates})
	if err := s.appendLocked(rec, !s.opts.NoSyncWAL); err != nil {
		return 0, err
	}
	s.batchSeq = seq
	s.stats.BatchesLogged++
	s.stats.LastBatchSeq = seq
	return seq, nil
}

// appendLocked writes rec at the end of the manifest's well-formed prefix
// and (optionally) syncs it. On any failure — torn write or failed sync —
// the offset does not advance, so the next append overwrites the doomed
// bytes: a record the caller was told failed must never survive into
// replay, where it would collide with the reused sequence number and
// shadow the retry. Caller holds s.mu.
func (s *Store) appendLocked(rec []byte, sync bool) error {
	if n, ferr := faultinject.CheckWrite(FaultManifestAppend, len(rec)); ferr != nil {
		if n > 0 {
			// Torn append: the prefix lands, the offset stays — exactly the
			// partial record recovery's checksum cut must discard.
			s.manifest.WriteAt(rec[:n], s.off)
		}
		return ferr
	}
	if _, err := s.manifest.WriteAt(rec, s.off); err != nil {
		return err
	}
	if sync {
		if err := s.manifest.Sync(); err != nil {
			return err
		}
	}
	s.off += int64(len(rec))
	return nil
}

// SaveEpoch durably persists one epoch: the segment image is written and
// synced first, the snapshot record is appended (and synced) only after, and
// the manifest is then rotated down to the retained snapshots. A crash at
// any byte offset of this sequence leaves the previous snapshot recoverable.
//
// The segment file I/O happens outside the store mutex — a multi-megabyte
// write and fsync must not stall concurrent LogBatch callers (the serving
// layer appends under its staging lock, so a blocked LogBatch would freeze
// ingestion for the whole snapshot). Only the manifest append and state
// update serialize. Callers must not save the same epoch concurrently (the
// serving snapshotter serializes on its own mutex).
func (s *Store) SaveEpoch(epochSeq, batchSeq uint64, shards []ShardRecord) error {
	image := EncodeSegment(epochSeq, batchSeq, shards, s.opts.PageSize)
	name := segmentName(epochSeq)

	s.mu.Lock()
	if s.manifest == nil {
		s.mu.Unlock()
		return fmt.Errorf("persist: store closed")
	}
	create := s.createFile
	s.mu.Unlock()

	f, err := create(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	fd, err := storage.NewFileDisk(f, 0, s.opts.PageSize)
	if err != nil {
		return err
	}
	if err := writeImage(fd, image); err != nil {
		fd.Close()
		return err
	}
	if err := fd.Close(); err != nil {
		return err
	}

	sr := SnapshotRecord{
		EpochSeq: epochSeq,
		BatchSeq: batchSeq,
		SegSize:  int64(len(image)),
		SegCRC:   imageCRC(image),
		Name:     name,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest == nil {
		return fmt.Errorf("persist: store closed")
	}
	if err := s.appendLocked(encodeSnapshotRecord(nil, sr), true); err != nil {
		return err
	}
	s.snapshots = append(s.snapshots, sr)
	s.stats.SnapshotsSaved++
	s.stats.SnapshotBytes += int64(len(image))
	s.stats.LastEpochSaved = epochSeq

	// Rotation and segment GC are best-effort: failure leaves a larger
	// manifest and stray segments, never a lost epoch.
	s.rotateLocked()
	return nil
}

// rotateLocked rewrites the manifest down to the retained snapshot records
// plus the batch records newer than the oldest retained snapshot covers,
// then garbage-collects unreferenced segment files. Caller holds s.mu.
func (s *Store) rotateLocked() {
	if len(s.snapshots) == 0 {
		return
	}
	retain := s.snapshots
	if len(retain) > s.opts.RetainSnapshots {
		retain = retain[len(retain)-s.opts.RetainSnapshots:]
	}
	oldestCovered := retain[0].BatchSeq

	// Re-read the current manifest for the batch records to carry over; they
	// are not kept in memory (a WAL can outgrow it).
	size := s.off
	data := make([]byte, size)
	if size > 0 {
		if _, err := s.manifest.ReadAt(data, 0); err != nil {
			return
		}
	}
	m := decodeManifest(data)

	out := make([]byte, 0, 4096)
	for _, sr := range retain {
		out = encodeSnapshotRecord(out, sr)
	}
	for _, br := range m.batches {
		if br.Seq > oldestCovered {
			out = encodeBatchRecord(out, br)
		}
	}

	tmpPath := filepath.Join(s.dir, manifestName+".tmp")
	tmp, err := s.createFile(tmpPath)
	if err != nil {
		return
	}
	if _, err := tmp.WriteAt(out, 0); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return
	}
	if err := os.Rename(tmpPath, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmpPath)
		return
	}
	// Point the handle at the rotated file. Past the rename there is no
	// falling back: the old handle's inode is renamed over, so appending to
	// it would acknowledge writes that vanish on restart. If the reopen
	// fails, the store fails its handle instead — later appends error and
	// the serving layer degrades to in-memory (counted, never silent).
	old := s.manifest
	s.manifest = nil
	if err := s.reopenManifestAfterRotate(retain, int64(len(out))); err != nil {
		old.Close()
		return
	}
	old.Close()
	s.stats.Rotations++
	s.gcSegmentsLocked(retain)
}

// reopenManifestAfterRotate opens the rotated manifest and installs the
// already-known state (avoiding a redundant replay). Caller holds s.mu.
func (s *Store) reopenManifestAfterRotate(retain []SnapshotRecord, size int64) error {
	f, fsize, err := s.openFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return err
	}
	if fsize < size {
		f.Close()
		return fmt.Errorf("persist: rotated manifest shrank: %d < %d", fsize, size)
	}
	s.manifest = f
	s.off = size
	s.snapshots = append([]SnapshotRecord(nil), retain...)
	return nil
}

// gcSegmentsLocked deletes segment files not referenced by the retained
// snapshot records. Caller holds s.mu.
func (s *Store) gcSegmentsLocked(retain []SnapshotRecord) {
	referenced := make(map[string]bool, len(retain))
	for _, sr := range retain {
		referenced[sr.Name] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "epoch-") || !strings.HasSuffix(name, ".seg") || referenced[name] {
			continue
		}
		os.Remove(filepath.Join(s.dir, name))
	}
}

// imageCRC checksums a whole segment image (header page included), the value
// the manifest snapshot record pins the file to.
func imageCRC(image []byte) uint32 {
	return crc32Checksum(image)
}

// Snapshots returns the retained snapshot records, oldest first (test and
// stats hook).
func (s *Store) Snapshots() []SnapshotRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SnapshotRecord, len(s.snapshots))
	copy(out, s.snapshots)
	sort.Slice(out, func(i, j int) bool { return out[i].EpochSeq < out[j].EpochSeq })
	return out
}
