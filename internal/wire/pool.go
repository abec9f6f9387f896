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
// syscall; a reader borrows one buffer for the life of its stream and
// reads ahead into it (FrameReader, safe because decoding copies out of
// it, into the reader's Arena).
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

// bufSize is the capacity of a fresh pooled buffer, and so the read-ahead
// of a FrameReader until a larger frame grows its buffer. PutBuf drops
// anything smaller, so the pool never hands out less.
const bufSize = 4096

// GetBuf returns an empty buffer with pooled capacity. Append to it
// (AppendFrame) and return the result with PutBuf when the bytes are
// dead.
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
	return make([]byte, 0, bufSize)
}

// PutBuf recycles a buffer obtained from GetBuf (or grown from one).
// The caller must not touch b afterwards.
func PutBuf(b []byte) {
	if cap(b) < bufSize {
		return
	}
	bufMu.Lock()
	if len(bufFree) < maxPooledBufs {
		bufFree = append(bufFree, b[:0])
	}
	bufMu.Unlock()
}

// FrameReader cuts frames out of one stream through a read-ahead buffer:
// each Read takes whatever the stream holds, up to the buffer's capacity,
// so frames that arrived together cost one read between them, and a frame
// needs more than one read only when it has not fully arrived. The buffer
// is borrowed from the pool (GetBuf) and returned when the stream ends —
// the first read error is latched and returned by every later call — so a
// reader per connection costs no storage of its own. Its MaxFrame check
// runs on the length prefix before any body byte is waited for.
//
// The raw bytes ReadRaw returns alias the buffer and are valid only until
// the next call on the reader. Decoded frames are carved from the
// reader's Arena and own that storage until the arena is rewound — within
// a run for a rank's reader, whose arena its store lends and rewinds at
// release, for good for a reader lent none — so a *Frame stays valid
// across any number of later reads (TestFrameReaderAliasing).
//
// Read-ahead must not start on a stream whose later bytes another reader
// will consume: bytes buffered here are this reader's. A handshake read
// before the stream is handed to a FrameReader uses ReadFrame, which
// reads exactly one frame.
type FrameReader struct {
	r   io.Reader
	buf []byte // pooled; buf[off:] is read ahead and not yet returned
	off int
	err error // latched: the stream has ended and buf is back in the pool
	c   coder // its arena persists across frames
}

// NewFrameReader returns a FrameReader over r that decodes into an arena
// of its own, made at its first decode and never rewound.
func NewFrameReader(r io.Reader) *FrameReader { return NewFrameReaderOn(r, nil) }

// NewFrameReaderOn returns a FrameReader over r that decodes into ar, or
// into an arena of its own when ar is nil. The reader is ar's writer
// until the stream ends: its owner rewinds ar only after that.
func NewFrameReaderOn(r io.Reader, ar *Arena) *FrameReader {
	return &FrameReader{r: r, buf: GetBuf(), c: coder{ar: ar}}
}

// ReadRaw reads one frame and returns its raw encoded bytes, length
// prefix included. The slice aliases the reader's buffer: it is
// invalidated by the next ReadRaw or ReadInto call. A stream that ends
// cleanly at a frame boundary returns io.EOF; one that ends inside a
// frame returns an error wrapping io.ErrUnexpectedEOF.
func (fr *FrameReader) ReadRaw() ([]byte, error) {
	if fr.err != nil {
		return nil, fr.err
	}
	raw, err := fr.next()
	if err != nil {
		fr.err = err
		PutBuf(fr.buf)
		fr.buf, fr.off = nil, 0
	}
	return raw, err
}

// next cuts the next frame out of the buffer, reading as it must.
func (fr *FrameReader) next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		if err == io.EOF && len(fr.buf) > fr.off {
			err = fmt.Errorf("wire: reading frame length: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	body := binary.LittleEndian.Uint32(fr.buf[fr.off:])
	if body > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d exceeds MaxFrame", body)
	}
	n := 4 + int(body)
	if err := fr.fill(n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	raw := fr.buf[fr.off : fr.off+n : fr.off+n]
	fr.off += n
	return raw, nil
}

// fill reads until at least n unreturned bytes are buffered. Before each
// read it moves the unreturned bytes (less than one frame) to the front,
// so the read may fill the rest of the buffer, and it grows the buffer
// only for a frame larger than it.
func (fr *FrameReader) fill(n int) error {
	for len(fr.buf)-fr.off < n {
		have := copy(fr.buf, fr.buf[fr.off:])
		fr.buf, fr.off = fr.buf[:have], 0
		if cap(fr.buf) < n {
			grown := make([]byte, have, n)
			copy(grown, fr.buf)
			PutBuf(fr.buf)
			fr.buf = grown
		}
		m, err := fr.r.Read(fr.buf[have:cap(fr.buf)])
		fr.buf = fr.buf[:have+m]
		if err != nil && len(fr.buf) < n {
			return err
		}
	}
	return nil
}

// ReadInto reads and decodes one frame into *f, reusing the struct. The
// decoded contents own their storage until the reader's arena is rewound
// (a carve is never handed out twice before that), so anything extracted
// from a previous decode stays valid; only *f itself is overwritten. On a
// cleanly closed stream it returns io.EOF.
func (fr *FrameReader) ReadInto(f *Frame) error {
	raw, err := fr.ReadRaw()
	if err != nil {
		return err
	}
	_, err = fr.c.parseFrame(f, raw)
	return err
}
