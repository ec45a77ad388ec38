package persist

// Recovery: pick the newest snapshot whose segments verify, fall back one
// generation at a time if they do not, and hand back the WAL tail the chosen
// snapshot does not cover. Shards are opened in parallel, one
// par.ForTasks task per shard record; an R-Tree shard is an overlay of a
// segment image in both recovery modes, whether the snapshot's own segment
// holds it or an older one its reference names.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// RecoverOptions shapes one recovery pass.
type RecoverOptions struct {
	// Workers bounds the goroutines used for parallel shard opens (<= 0
	// uses GOMAXPROCS).
	Workers int
	// Mapped selects O(open) recovery: the chosen snapshot's segment files
	// are mmap'd instead of read onto the heap (Recovery.Mapping holds them;
	// the caller must Close it when the epoch retires), and no checksum is
	// computed — the payload bytes are structurally validated but not
	// checksummed. Without
	// it, the whole image is read and verified before serving. Platforms
	// without mmap run the heap path either way.
	Mapped bool
}

// Recovery is the outcome of a successful recovery pass.
type Recovery struct {
	// EpochSeq is the recovered epoch's sequence number (0 when no snapshot
	// existed — the store starts empty and Pending carries everything).
	EpochSeq uint64
	// BatchSeq is the last WAL batch the recovered epoch covers.
	BatchSeq uint64
	// Shards are the recovered epoch's shard records, every reference
	// resolved (R-Tree shards overlay the segment images).
	Shards []ShardRecord
	// Pending are the WAL batches newer than BatchSeq, in replay order.
	Pending []BatchRecord
	// SkippedCorrupt counts snapshot generations that failed verification
	// and were skipped on the way to this one.
	SkippedCorrupt int
	// Segment is the file name of the recovered snapshot's own segment ("" if
	// none); its references may point into older files.
	Segment string
	// Mapping is the mapped segment files backing the shards of a Mapped
	// recovery (nil otherwise). The caller must keep it open while any
	// shard serves and Close it when the recovered epoch retires.
	Mapping *MappedSegment
	// ZeroCopyShards counts shards served as zero-copy overlays of an actual
	// mapping (0 for a heap image).
	ZeroCopyShards int
}

// Items returns the total item count across the recovered shards.
func (r *Recovery) Items() int {
	n := 0
	for i := range r.Shards {
		n += r.Shards[i].Len()
	}
	return n
}

// Recover replays the manifest and loads the newest verifiable snapshot plus
// the WAL tail beyond it. When snapshots exist but none verifies, it returns
// an ErrCorrupt-wrapped error and no Recovery — torn data is never handed to
// the serving layer. When no snapshot was ever written, it returns a
// zero-epoch Recovery whose Pending holds the entire WAL.
func (s *Store) Recover(opts RecoverOptions) (*Recovery, error) {
	s.mu.Lock()
	manifestPath := filepath.Join(s.dir, manifestName)
	data, err := os.ReadFile(manifestPath)
	s.mu.Unlock()
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	m := decodeManifest(data)

	// Newest first; manifest order is append order, but sort defensively —
	// rotation rewrites records and a hand-edited log should still recover.
	snaps := append([]SnapshotRecord(nil), m.snapshots...)
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].EpochSeq > snaps[j].EpochSeq })

	var firstErr error
	skipped := 0
	for _, sr := range snaps {
		rec, err := s.loadSnapshot(sr, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("snapshot epoch %d (%s): %w", sr.EpochSeq, sr.Name, err)
			}
			skipped++
			continue
		}
		rec.SkippedCorrupt = skipped
		rec.Pending = pendingAfter(m.batches, rec.BatchSeq)
		return rec, nil
	}
	if len(snaps) > 0 {
		return nil, fmt.Errorf("persist: all %d snapshots failed verification, newest: %w", len(snaps), firstErr)
	}
	// No snapshot was ever written: recover to the empty epoch plus the
	// whole WAL.
	return &Recovery{Pending: pendingAfter(m.batches, 0)}, nil
}

// loadSnapshot opens one snapshot through openSegment, in the mode opts
// selects, and packages it as a Recovery. Heap images need no release (the
// shards overlaying them keep them alive), so only a mapped recovery hands
// the segments to the caller as Mapping.
func (s *Store) loadSnapshot(sr SnapshotRecord, opts RecoverOptions) (*Recovery, error) {
	if filepath.Base(sr.Name) != sr.Name {
		return nil, fmt.Errorf("%w snapshot: name %q escapes the data dir", ErrCorrupt, sr.Name)
	}
	ms, err := openSegment(filepath.Join(s.dir, sr.Name), sr, opts.Workers, opts.Mapped)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{
		EpochSeq:       sr.EpochSeq,
		BatchSeq:       sr.BatchSeq,
		Shards:         ms.Shards,
		Segment:        sr.Name,
		ZeroCopyShards: ms.ZeroCopyShards(),
	}
	if opts.Mapped {
		rec.Mapping = ms
	}
	return rec, nil
}

// pendingAfter returns the batches with sequence beyond covered, in replay
// (sequence) order, deduplicated — rotation can briefly leave a batch both
// in the carried-over set and the tail.
func pendingAfter(batches []BatchRecord, covered uint64) []BatchRecord {
	out := make([]BatchRecord, 0, len(batches))
	seen := make(map[uint64]bool, len(batches))
	for _, br := range batches {
		if br.Seq > covered && !seen[br.Seq] {
			seen[br.Seq] = true
			out = append(out, br)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
