package wire

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the frame decoder. The
// properties enforced:
//
//   - decoding never panics and never allocates beyond the input length
//     (the count guards),
//   - any frame that decodes re-encodes, and
//   - decode∘encode is the identity on decoded frames (the decoded form
//     is canonical: non-minimal varints in the input normalize away).
//
// The seed corpus under testdata/fuzz covers every frame kind and payload
// type (regenerate with -write-corpus after a format change).
func FuzzWireRoundTrip(f *testing.F) {
	// awkwardFrames seeds NaN-payload and signed-zero words; it is not part
	// of the checked-in corpus, which sampleFrames alone generates.
	for _, fr := range append(sampleFrames(), awkwardFrames()...) {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ParseFrame(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		enc, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		back, m, err := ParseFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if m != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", m, len(enc))
		}
		// Compare via the canonical encoding: bit-exact, and NaN-proof
		// where reflect.DeepEqual is not.
		enc2, err := AppendFrame(nil, back)
		if err != nil {
			t.Fatalf("re-decoded frame does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("decode/encode/decode not canonical:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

var writeCorpus = flag.Bool("write-corpus", false, "regenerate the checked-in fuzz seed corpus")

// TestWriteFuzzCorpus regenerates testdata/fuzz/FuzzWireRoundTrip from
// sampleFrames when run with -write-corpus (after a wire-format change).
func TestWriteFuzzCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("pass -write-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old, _ := filepath.Glob(filepath.Join(dir, "seed-*"))
	for _, f := range old {
		os.Remove(f)
	}
	for i, fr := range sampleFrames() {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
