// Package persist is the durability layer of the serving subsystem: it
// writes each published epoch's frozen shards into a page-aligned segment
// file with one write and one sync, journals update batches into a small
// append-only manifest/WAL between snapshots, and recovers the newest
// checksum-complete epoch (plus the WAL tail) after a crash or restart,
// reading each segment back with one read or one mmap. It does its own file
// I/O: no page device or buffer pool sits between it and the files.
//
// The design splits along the same seam as the serving layer itself:
//
//   - segments are immutable bulk images — one per saved epoch, written
//     once, synced, and only then referenced from the manifest, so a
//     half-written segment is invisible to recovery;
//   - the manifest is the tiny mutable part: an append-only record log whose
//     torn tail is cut at the first bad checksum, rotated via
//     write-temp-then-rename after each snapshot so it never grows beyond
//     the retained snapshots and their uncovered batches.
//
// Every saved epoch is complete, but its segment holds only the images the
// last successful save did not already persist: each other shard is a
// reference record naming the older segment, offset, length and checksum
// of the record that holds its bytes (see Store.SaveEpoch). A snapshot is
// therefore its own segment plus the older segments it references; the
// manifest record lists them, and segment GC keeps every segment a
// retained snapshot lists.
//
// Recovery never serves bytes that fail verification: a segment loads only
// if its size matches the manifest record that names it and every shard
// record — its own or one a reference resolves to — opens cleanly;
// otherwise recovery falls back to the previous retained snapshot, and only
// if no snapshot survives does it report corruption instead of serving torn
// data. Sharing changes one edge of that fallback: retained generations
// usually reference the same older segments, so corrupting a segment both
// reference costs both. Heap recovery then fails with an ErrCorrupt-wrapped
// error (the reference's checksum catches any flipped byte); mapped
// recovery fails with a structural error when the corruption is structural
// (header, record framing, node slab) and, like any mapped read, does not
// see a flipped leaf byte. Neither mode panics.
//
// There is one read path for the shards a segment holds: every R-Tree shard
// is an overlay of a segment image (rtree.OverlayCompact), never a decoded
// copy. The two recovery modes differ only in the image source and the
// checksum: heap mode reads each file onto the heap and verifies the
// whole-image and payload CRCs of the snapshot's own segment and the record
// CRC of every reference first; mapped mode (RecoverOptions.Mapped) mmaps
// each file read-only and validates only the O(1) envelope, so recovery is
// O(open) and no page faults until a query touches it — structural
// corruption is still rejected (the overlay bounds-checks the slab
// geometry), and the mappings are released when the recovered epoch
// retires. The format is little-endian, so Open refuses big-endian hosts.
package persist

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"spatialsim/internal/geom"
	"spatialsim/internal/obs"
	"spatialsim/internal/rtree"
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
	// PageSize is the segment page size in bytes; <= 0 picks 4096. Any
	// other value must be one the segment decoder reads back: a multiple of
	// 8 (every record, and so every R-Tree blob, starts 8-byte aligned in
	// the file) from 48 (the segment header, rounded up to 8) to 1<<24.
	// Open refuses the rest.
	PageSize int
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
	manifest  BackingFile
	off       int64 // append offset: end of the well-formed prefix
	batchSeq  uint64
	snapshots []SnapshotRecord
	stats     StoreStats
	// carry is what the last successful save persisted (nil before the
	// first one and after a failed one): the next save references these
	// images instead of rewriting them. Only a successful save installs it.
	carry *carrySet
	// images counts, over successful saves, the R-Tree images written in
	// full, carried by reference, and relocated (written in full although
	// carried, to keep their old segment from going mostly dead). They are
	// exported as registry series (RegisterMetrics), not StoreStats fields.
	images struct{ written, carried, relocated int64 }

	// createFile is the crash-injection seam: segment files, manifest
	// rotations and appends all go through it. Tests substitute files that
	// fail after a randomized number of bytes.
	createFile func(path string) (BackingFile, error)
	openFile   func(path string) (BackingFile, int64, error)
}

func osCreate(path string) (BackingFile, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func osOpen(path string) (BackingFile, int64, error) {
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
// never loads segments — Recover does that on demand. It refuses a page
// size the segment decoder could not read back (see Options.PageSize), and
// on a big-endian host it returns an error wrapping
// rtree.ErrOverlayUnsupported: in either case segments could be written but
// never recovered.
func Open(dir string, opts Options) (*Store, error) {
	if !rtree.OverlaySupported() {
		return nil, fmt.Errorf("persist: open %s: %w", dir, rtree.ErrOverlayUnsupported)
	}
	opts = opts.withDefaults()
	if ps, lo := opts.PageSize, align8(segmentHeaderSize); ps%8 != 0 || ps < lo || ps > maxPageSize {
		return nil, fmt.Errorf("persist: open %s: page size %d is not a multiple of 8 in [%d, %d]", dir, ps, lo, maxPageSize)
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
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
	create func(path string) (BackingFile, error),
	open func(path string) (BackingFile, int64, error),
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
// shadow the retry; a torn append's prefix is exactly the partial record
// recovery's checksum cut must discard. Caller holds s.mu.
func (s *Store) appendLocked(rec []byte, sync bool) error {
	if err := writeAt(s.manifest, FaultManifestAppend, rec, s.off); err != nil {
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
// The epoch is always complete, but the segment holds only what changed:
// an image that the last successful save wrote or referenced — the same
// *rtree.Compact, recognized by identity — becomes a reference record
// naming the bytes already on disk. Callers therefore pass the whole epoch
// every time; carrying is decided here. The carry table keeps the images
// of the last successful save reachable: when the caller skips epochs
// between saves, that is at most one saved epoch's images beyond those it
// holds itself. A failed save drops the table, so the save after it is
// whole, as is the first save of a Store (after a load or a restart).
//
// One rule bounds the disk (see carrySet.plan): each save relocates —
// rewrites in full — the images it uses from the sparsest older segment it
// references once they fill less than two thirds of that segment's
// payload, and relocates more only where the snapshot's files would
// otherwise hold more than twice the image bytes of the epoch.
//
// The segment file I/O happens outside the store mutex — a multi-megabyte
// write and fsync must not stall concurrent LogBatch callers (the serving
// layer appends under its staging lock, so a blocked LogBatch would freeze
// ingestion for the whole snapshot). Only the manifest append and state
// update serialize. Callers must not save the same epoch concurrently (the
// serving snapshotter serializes on its own mutex).
func (s *Store) SaveEpoch(epochSeq, batchSeq uint64, shards []ShardRecord) error {
	s.mu.Lock()
	if s.manifest == nil {
		s.mu.Unlock()
		return fmt.Errorf("persist: store closed")
	}
	create, carry := s.createFile, s.carry
	s.mu.Unlock()
	if err := s.saveEpoch(create, carry, epochSeq, batchSeq, shards); err != nil {
		s.mu.Lock()
		s.carry = nil
		s.mu.Unlock()
		return err
	}
	return nil
}

// saveEpoch is SaveEpoch after the store-state checks: it writes the
// segment, appends its record and, on success, installs the carry table
// the save leaves behind.
func (s *Store) saveEpoch(create func(string) (BackingFile, error), carry *carrySet, epochSeq, batchSeq uint64, shards []ShardRecord) error {
	refs, segs, relocated := carry.plan(epochSeq, shards)
	image, locs := encodeSegment(epochSeq, batchSeq, shards, refs, s.opts.PageSize)
	name := segmentName(epochSeq)

	f, err := create(filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	if err := writeSegment(f, image); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	sr := SnapshotRecord{
		EpochSeq: epochSeq,
		BatchSeq: batchSeq,
		SegSize:  int64(len(image)),
		SegCRC:   imageCRC(image),
		Name:     name,
		Refs:     segs,
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
	s.carry = carry.next(epochSeq, payloadLen(image), shards, locs)
	for i := range shards {
		if refs != nil && refs[i] != nil {
			s.images.carried++
		} else {
			s.images.written++
		}
	}
	s.images.relocated += int64(relocated)

	// Rotation and segment GC are best-effort: failure leaves a larger
	// manifest and stray segments, never a lost epoch.
	s.rotateLocked()
	return nil
}

// carrySet is what one successful save persisted: where the bytes of every
// R-Tree image it wrote or referenced live, and the payload size of each
// segment those locations point into. It is immutable once built.
type carrySet struct {
	at      map[*rtree.Compact]ShardRef
	payload map[uint64]int64
}

// plan lays out the save of epoch epochSeq. A shard whose image this set
// holds becomes a reference record (refs[i] set), unless its older segment
// is relocated — its images the epoch uses written in full again, so later
// snapshots stop needing that file. A save relocates the sparsest segment
// it references once the images it uses from there fill less than two
// thirds of the segment's payload — one segment per save, because the
// fallback generation keeps a relocated segment on disk until the next
// save, so relocating several at once makes the disk peak; it relocates
// further segments, sparsest first, only while the snapshot's files would
// hold more than twice the epoch's image bytes. plan returns the
// references (nil when the set is nil: a whole save), the ascending epochs
// of the segments they point into, and how many images it relocated.
func (cs *carrySet) plan(epochSeq uint64, shards []ShardRecord) (refs []*ShardRef, segs []uint64, relocated int) {
	if cs == nil {
		return nil, nil, 0
	}
	refs = make([]*ShardRef, len(shards))
	live := make(map[uint64]int64)
	// used is the image bytes of the epoch; held is the image bytes its
	// files would hold with nothing relocated.
	var used, held int64
	for i, sh := range shards {
		span := recordSpan(sh)
		used += span
		ref, ok := cs.lookup(epochSeq, sh)
		if !ok {
			held += span
			continue
		}
		refs[i] = &ref
		live[ref.Segment] += ref.span()
	}
	for seg := range live {
		segs = append(segs, seg)
		held += cs.payload[seg]
	}
	slices.SortFunc(segs, func(a, b uint64) int {
		if c := cmp.Compare(live[a]*cs.payload[b], live[b]*cs.payload[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	drop := make(map[uint64]bool)
	for k, seg := range segs {
		sparse := k == 0 && 3*live[seg] < 2*cs.payload[seg]
		if !sparse && held <= 2*used {
			break
		}
		drop[seg] = true
		held += live[seg] - cs.payload[seg]
	}
	for i, ref := range refs {
		if ref != nil && drop[ref.Segment] {
			refs[i] = nil
			relocated++
		}
	}
	segs = slices.DeleteFunc(segs, func(seg uint64) bool { return drop[seg] })
	slices.Sort(segs)
	return refs, segs, relocated
}

// recordSpan is the payload bytes sh's record takes when written in full,
// alignment pad included.
func recordSpan(sh ShardRecord) int64 {
	return int64(shardRecordHeaderSize + align8(shardBlobSize(sh, nil)))
}

// lookup returns where the set holds sh's image. Only segments older than
// the one being written are eligible: a save must never reference the file
// it is about to (re)create.
func (cs *carrySet) lookup(epochSeq uint64, sh ShardRecord) (ShardRef, bool) {
	ref, ok := cs.at[sh.RTree]
	return ref, ok && ref.Segment < epochSeq
}

// next builds the set a successful save of epochSeq leaves behind: every
// image of shards at the location its record now names (locs, from
// encodeSegment), with payloadLen the new segment's payload size.
func (cs *carrySet) next(epochSeq uint64, payloadLen int64, shards []ShardRecord, locs []ShardRef) *carrySet {
	nx := &carrySet{at: make(map[*rtree.Compact]ShardRef, len(shards)), payload: map[uint64]int64{epochSeq: payloadLen}}
	for i, sh := range shards {
		nx.at[sh.RTree] = locs[i]
		if seg := locs[i].Segment; seg != epochSeq {
			nx.payload[seg] = cs.payload[seg]
		}
	}
	return nx
}

// RegisterMetrics exports the store's snapshot counters as registry
// series: R-Tree images written in full, carried by reference and
// relocated by successful saves, and the segment bytes they wrote.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	series := map[string]*int64{
		"spatial_snapshot_images_written_total":   &s.images.written,
		"spatial_snapshot_images_carried_total":   &s.images.carried,
		"spatial_snapshot_images_relocated_total": &s.images.relocated,
		"spatial_snapshot_segment_bytes_total":    &s.stats.SnapshotBytes,
	}
	for name, v := range series {
		reg.CounterFunc(name, func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(*v)
		})
	}
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

// gcSegmentsLocked deletes segment files that no retained snapshot record
// names, as its own segment or as one its references point into. Caller
// holds s.mu.
func (s *Store) gcSegmentsLocked(retain []SnapshotRecord) {
	referenced := make(map[string]bool, len(retain))
	for _, sr := range retain {
		referenced[sr.Name] = true
		for _, seg := range sr.Refs {
			referenced[segmentName(seg)] = true
		}
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
