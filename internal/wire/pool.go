package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Buffer pooling for the hot wire path. Every frame a socket transport
// moves needs byte storage twice — once to encode it at the sender, once
// to read its raw bytes off a connection — and allocating that storage
// per frame dominated the allocation profile of the net backend's
// steady-state barrier path. The pool amortizes both: encoders append
// into a pooled buffer and the transport returns it after the write
// syscall; readers either own a pooled buffer per frame (when the raw
// bytes outlive the read call, e.g. queued for routing) or reuse one
// buffer across frames (FrameReader, safe because decoding copies).
//
// The codec itself is untouched: pooling changes where bytes live, never
// what they are — encodings stay canonical and byte-identical
// (FuzzWireRoundTrip).

// bufMu guards bufFree, a freelist of frame-sized byte buffers. A plain
// slice of headers beats sync.Pool here: Put into a sync.Pool must box
// the slice header behind a pointer, which itself allocates — one heap
// object per recycled frame, exactly what the pool exists to avoid. The
// freelist push/pop moves only headers within a retained backing array,
// so the steady state allocates nothing in either direction. The list is
// capped so an exceptional burst (a huge barrier flurry) does not pin its
// high-water mark of buffers forever.
var (
	bufMu   sync.Mutex
	bufFree [][]byte
)

// maxPooledBufs bounds the freelist; beyond it PutBuf drops the buffer
// for the garbage collector.
const maxPooledBufs = 1024

// GetBuf returns an empty buffer with pooled capacity. Append to it
// (AppendFrame, ReadRawFrameInto) and return the result with PutBuf when
// the bytes are dead.
func GetBuf() []byte {
	bufMu.Lock()
	if n := len(bufFree); n > 0 {
		b := bufFree[n-1]
		bufFree[n-1] = nil
		bufFree = bufFree[:n-1]
		bufMu.Unlock()
		return b
	}
	bufMu.Unlock()
	return make([]byte, 0, 4096)
}

// PutBuf recycles a buffer obtained from GetBuf (or grown from one).
// The caller must not touch b afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	bufMu.Lock()
	if len(bufFree) < maxPooledBufs {
		bufFree = append(bufFree, b[:0])
	}
	bufMu.Unlock()
}

// ReadRawFrameInto reads one length-prefixed frame from r without
// decoding it, appending onto buf (which may be nil) and returning the
// full encoded bytes, length prefix included. The result aliases buf's
// storage when capacity suffices — callers own the returned slice and
// may recycle it with PutBuf.
func ReadRawFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	body := binary.LittleEndian.Uint32(buf)
	if body > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds MaxFrame", body)
	}
	if cap(buf) < 4+int(body) {
		grown := make([]byte, 4+int(body))
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:4+body]
	}
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return buf, nil
}

// FrameReader reads frames from one stream reusing a single raw buffer
// across calls: the steady-state read path allocates nothing for frame
// storage. Reuse is safe for decoded frames — the decoder copies every
// slice, so a *Frame fully owns its storage and stays valid across any
// number of later reads (TestFrameReaderAliasing) — but the raw bytes
// returned by ReadRaw are valid only until the next call on the reader.
type FrameReader struct {
	r   io.Reader
	buf []byte
	c   coder // its arena persists across frames, amortizing chunk refills
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: GetBuf()}
}

// ReadRaw reads one frame and returns its raw encoded bytes. The slice
// aliases the reader's internal buffer: it is invalidated by the next
// ReadRaw or ReadInto call.
func (fr *FrameReader) ReadRaw() ([]byte, error) {
	raw, err := ReadRawFrameInto(fr.r, fr.buf)
	if err != nil {
		return nil, err
	}
	fr.buf = raw
	return raw, nil
}

// ReadInto reads and decodes one frame into *f, reusing the struct. The
// decoded contents own their storage (slices come from arena chunks that
// are never handed out twice), so anything extracted from a previous
// decode stays valid; only *f itself is overwritten. On a cleanly closed
// stream it returns io.EOF.
func (fr *FrameReader) ReadInto(f *Frame) error {
	raw, err := fr.ReadRaw()
	if err != nil {
		return err
	}
	_, err = fr.c.parseFrame(f, raw)
	return err
}
