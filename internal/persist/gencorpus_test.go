package persist

// TestGenerateFuzzCorpus regenerates the committed seed corpora under
// testdata/fuzz/ from the current encoders. It only runs when
// SPATIALSIM_GEN_CORPUS=1 — invoke it after an intentional format change:
//
//	SPATIALSIM_GEN_CORPUS=1 go test ./internal/persist -run GenerateFuzzCorpus

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/rtree"
)

func writeCorpusFile(t *testing.T, target, name string, data []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("SPATIALSIM_GEN_CORPUS") != "1" {
		t.Skip("set SPATIALSIM_GEN_CORPUS=1 to regenerate the committed fuzz corpora")
	}
	items := make([]index.Item, 48)
	for i := range items {
		f := float64(i)
		items[i] = index.Item{ID: int64(i + 1), Box: geom.NewAABB(geom.V(f, f, f), geom.V(f+1, f+1, f+1))}
	}
	c := rtree.FreezeItems(items, rtree.Config{})
	blob := c.AppendBinary(nil)
	writeCorpusFile(t, "FuzzDecodeCompact", "seed-valid", blob)
	writeCorpusFile(t, "FuzzDecodeCompact", "seed-truncated", blob[:len(blob)*2/3])
	mut := append([]byte(nil), blob...)
	mut[50] ^= 0x20
	writeCorpusFile(t, "FuzzDecodeCompact", "seed-mutated", mut)

	seg := refSeedSegment(9, 4, items, 256)
	writeCorpusFile(t, "FuzzDecodeSegment", "seed-valid", seg)
	writeCorpusFile(t, "FuzzDecodeSegmentMapped", "seed-valid", seg)
	lenFlip := append([]byte(nil), seg...)
	lenFlip[256+56] ^= 0xFF // shard 0 blob-length field (payload at page 1, record offset 56)
	writeCorpusFile(t, "FuzzDecodeSegmentMapped", "seed-flipped-length", lenFlip)
	info, _ := DecodeSegmentInfo(seg, len(seg))
	refFlip := append([]byte(nil), seg...)
	refFlip[info.PageSize+info.PayloadLen-32+8] ^= 0x40 // the reference's record offset
	writeCorpusFile(t, "FuzzDecodeSegmentMapped", "seed-flipped-ref", refFlip)

	writeCorpusFile(t, "FuzzOverlayCompact", "seed-valid", blob)
	writeCorpusFile(t, "FuzzOverlayCompact", "seed-mutated", mut)

	var man []byte
	man = encodeSnapshotRecord(man, SnapshotRecord{
		EpochSeq: 9, BatchSeq: 4, SegSize: int64(len(seg)), SegCRC: 7,
		Name: "epoch-0000000000000009.seg", Refs: []uint64{7, 8},
	})
	man = encodeBatchRecord(man, BatchRecord{Seq: 5, Updates: []Update{
		{ID: 12, Box: geom.NewAABB(geom.V(1, 2, 3), geom.V(4, 5, 6))},
		{ID: 13, Delete: true},
	}})
	writeCorpusFile(t, "FuzzDecodeManifest", "seed-valid", man)
	writeCorpusFile(t, "FuzzDecodeManifest", "seed-torn", man[:len(man)-5])
}
