package main

import (
	"bytes"
	"strings"
	"testing"
)

// streamBytes is the first n requests of every client of a mix, as the bytes
// that would go on the wire.
func streamBytes(seed int64, mix [3]int, n int) []byte {
	d := generateDataset(smokeItems)
	var b bytes.Buffer
	for c := 0; c < clients; c++ {
		st := newStream(d, seed, c, mix)
		for i := 0; i < n; i++ {
			b.WriteString(st.nextRequest().path)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range workloads {
		if w.readers == 0 {
			continue
		}
		// More than one chunk per class, so chunk seeding is covered too.
		a := streamBytes(7, w.mix, 3*queryChunk)
		if !bytes.Equal(a, streamBytes(7, w.mix, 3*queryChunk)) {
			t.Errorf("%s: the same seed gave different request streams", w.name)
		}
		if bytes.Equal(a, streamBytes(8, w.mix, 3*queryChunk)) {
			t.Errorf("%s: different seeds gave the same request stream", w.name)
		}
	}
}

func TestStreamNeverRepeatsAQuery(t *testing.T) {
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(streamBytes(3, [3]int{50, 25, 25}, 3*queryChunk)), "\n") {
		if line == "" {
			continue
		}
		if seen[line] {
			t.Fatalf("request repeated: %s", line)
		}
		seen[line] = true
	}
}

func TestClassSequenceIndependentOfMix(t *testing.T) {
	d := generateDataset(smokeItems)
	mixed, pure := newStream(d, 5, 0, [3]int{50, 25, 25}), newStream(d, 5, 0, [3]int{100, 0, 0})
	var fromMixed []string
	for len(fromMixed) < 100 {
		if r := mixed.nextRequest(); r.class == classRange {
			fromMixed = append(fromMixed, r.path)
		}
	}
	for i, want := range fromMixed {
		if got := pure.nextOf(classRange).path; got != want {
			t.Fatalf("range query %d differs between mixes: %s vs %s", i, got, want)
		}
	}
}

func TestSameSeedSameUpdateBatches(t *testing.T) {
	items := datasetItems(generateDataset(smokeItems))
	a, b, c := newMover(2, items), newMover(2, items), newMover(3, items)
	for i := 0; i < 4; i++ {
		ba, bb, bc := updateBody(a.nextBatch()), updateBody(b.nextBatch()), updateBody(c.nextBatch())
		if !bytes.Equal(ba, bb) {
			t.Fatalf("batch %d: the same seed gave different update bodies", i)
		}
		if bytes.Equal(ba, bc) {
			t.Fatalf("batch %d: different seeds gave the same update body", i)
		}
	}
}

func TestAppendFloatHasNoPlusSign(t *testing.T) {
	for f, want := range map[float64]string{1e6: "1e06", -1e21: "-1e21", 12.5: "12.5", 1e-7: "1e-07"} {
		if got := string(appendFloat(nil, f)); got != want {
			t.Errorf("appendFloat(%g) = %q, want %q", f, got, want)
		}
	}
}
