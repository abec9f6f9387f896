package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// readerFrames is a stream for the read-ahead reader: every sample frame,
// then one whose encoding is several times the pooled buffer (GetBuf's
// 4 KiB), then the samples again, so frames sit on both sides of a grown
// buffer.
func readerFrames(t *testing.T) (stream []byte, frames [][]byte) {
	t.Helper()
	big := make([]float64, 3000)
	for i := range big {
		big[i] = float64(i) / 7
	}
	fs := append(sampleFrames(), &Frame{Kind: FMsg, From: 1, To: 2, Tag: 3, Payload: big})
	fs = append(fs, sampleFrames()...)
	for _, f := range fs {
		enc, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, enc)
		stream = append(stream, enc...)
	}
	return stream, frames
}

// countingReader counts the Read calls that reach the stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// prefixOnly serves a length prefix and fails the test if the reader
// asks for anything after it.
type prefixOnly struct {
	t    *testing.T
	head []byte
}

func (p *prefixOnly) Read(b []byte) (int, error) {
	if len(p.head) == 0 {
		p.t.Error("the reader waited for the body of a frame whose length exceeds MaxFrame")
		return 0, io.EOF
	}
	n := copy(b, p.head)
	p.head = p.head[n:]
	return n, nil
}

// TestFrameReaderStream reads whole streams through the read-ahead reader
// as the bytes arrive in different cuts: every frame comes back exactly
// as sent, through ReadRaw and through ReadInto, and the stream's clean
// end is io.EOF, latched for later calls.
func TestFrameReaderStream(t *testing.T) {
	stream, frames := readerFrames(t)
	for _, tc := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-with-eof", iotest.DataErrReader},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFrameReader(tc.wrap(bytes.NewReader(stream)))
			for i, want := range frames {
				raw, err := fr.ReadRaw()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(raw, want) {
					t.Fatalf("frame %d: read %d bytes that differ from the %d sent", i, len(raw), len(want))
				}
			}
			for range 2 {
				if _, err := fr.ReadRaw(); err != io.EOF {
					t.Fatalf("at the stream's end: %v, want io.EOF", err)
				}
			}

			fr = NewFrameReader(tc.wrap(bytes.NewReader(stream)))
			var f Frame
			for i, want := range frames {
				if err := fr.ReadInto(&f); err != nil {
					t.Fatalf("decoding frame %d: %v", i, err)
				}
				got, err := AppendFrame(nil, &f)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d decodes to a different frame", i)
				}
			}
		})
	}
}

// TestFrameReaderReadsAhead pins what the reader is for: frames that
// arrived together cost one read between them. Twenty small frames in a
// stream shorter than the pooled buffer take one read, and the clean end
// one more.
func TestFrameReaderReadsAhead(t *testing.T) {
	var stream []byte
	const n = 20
	for i := range n {
		enc, err := AppendFrame(nil, &Frame{Kind: FMsg, From: 0, To: 1, Tag: int32(i), Payload: []float64{float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, enc...)
	}
	if len(stream) > 4096 {
		t.Fatalf("fixture of %d bytes does not fit the pooled buffer", len(stream))
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	fr := NewFrameReader(cr)
	var f Frame
	for i := range n {
		if err := fr.ReadInto(&f); err != nil {
			t.Fatal(err)
		}
		if f.Tag != int32(i) {
			t.Fatalf("frame %d arrived as tag %d", i, f.Tag)
		}
	}
	if cr.reads != 1 {
		t.Errorf("%d frames that arrived together took %d reads, want 1", n, cr.reads)
	}
	if err := fr.ReadInto(&f); err != io.EOF {
		t.Fatalf("at the stream's end: %v, want io.EOF", err)
	}
	if cr.reads != 2 {
		t.Errorf("the stream's end took %d reads, want 1", cr.reads-1)
	}
}

// TestFrameReaderErrors: a length over MaxFrame is refused on its prefix
// alone, and a stream cut inside a frame — in its length or in its body —
// is an io.ErrUnexpectedEOF error, not a clean io.EOF.
func TestFrameReaderErrors(t *testing.T) {
	enc, err := AppendFrame(nil, &Frame{Kind: FMsg, From: 0, To: 1, Tag: 7, Payload: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	for _, tc := range []struct {
		name string
		r    io.Reader
		want func(error) bool
	}{
		{"over-MaxFrame", &prefixOnly{t: t, head: huge}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "exceeds MaxFrame")
		}},
		{"empty", bytes.NewReader(nil), func(err error) bool { return err == io.EOF }},
		{"mid-length", bytes.NewReader(enc[:2]), func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"mid-body", bytes.NewReader(enc[:len(enc)-1]), func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"frame-then-mid-length", io.MultiReader(bytes.NewReader(enc), bytes.NewReader(enc[:3])), func(err error) bool {
			return errors.Is(err, io.ErrUnexpectedEOF)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := NewFrameReader(tc.r)
			raw, err := fr.ReadRaw()
			if tc.name == "frame-then-mid-length" {
				if !bytes.Equal(raw, enc) {
					t.Fatalf("first frame: %v", err)
				}
				raw, err = fr.ReadRaw()
			}
			if raw != nil || !tc.want(err) {
				t.Fatalf("ReadRaw = (%d bytes, %v)", len(raw), err)
			}
			if _, again := fr.ReadRaw(); again != err {
				t.Errorf("a second call returned %v, not the latched %v", again, err)
			}
		})
	}
}

// TestFrameReaderReturnsBuffer: the read-ahead buffer is the pool's, and
// goes back to it when the stream ends, so a reader per connection keeps
// no storage of its own. A reader that grew its buffer for a frame larger
// than it returns both, the pooled one when it grows and the grown one at
// the end.
func TestFrameReaderReturnsBuffer(t *testing.T) {
	grown, frames := readerFrames(t)
	small := bytes.Join(frames[:4], nil)
	pooled := func() int {
		bufMu.Lock()
		defer bufMu.Unlock()
		return len(bufFree)
	}
	for _, tc := range []struct {
		name   string
		stream []byte
		gained int
	}{{"small", small, 0}, {"grown", grown, 1}} {
		PutBuf(GetBuf()) // the freelist holds at least one buffer
		before := pooled()
		fr := NewFrameReader(bytes.NewReader(tc.stream))
		if pooled() != before-1 {
			t.Fatalf("%s: NewFrameReader did not take its buffer from the pool", tc.name)
		}
		for {
			if _, err := fr.ReadRaw(); err != nil {
				break
			}
		}
		if got := pooled(); got != before+tc.gained {
			t.Errorf("%s: after the stream ended the pool holds %d buffers, want %d", tc.name, got, before+tc.gained)
		}
	}
}
