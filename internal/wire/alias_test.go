package wire

import (
	"bytes"
	"io"
	"testing"
)

// aliasFrames builds a deterministic set of frames whose payloads draw on
// every decode-arena slice class (int32, float64, PageRef, Run, Diff,
// OwnedInterval, and the [][]int32 rows): diff replies, grants with
// piggybacked spans, and diff requests.
func aliasFrames() []*Frame {
	mkDiff := func(page, seed int32) Diff {
		d := Diff{
			Page: page, Creator: seed % 4, From: seed, To: seed + 1,
			Covers: []int32{seed, seed + 2, seed + 5},
		}
		for off := int32(0); off < 64; off += 16 {
			d.Runs = append(d.Runs, Run{Off: off + seed%8, Vals: []float64{float64(seed), float64(off), 3.5}})
		}
		return d
	}
	var frames []*Frame
	for seed := int32(0); seed < 8; seed++ {
		frames = append(frames,
			&Frame{Kind: FReply, From: seed % 4, To: (seed + 1) % 4, Tag: 100 + seed, Bytes: 512, Time: int64(seed) * 1000,
				Payload: &DiffReply{Diffs: []Diff{mkDiff(3+seed, seed), mkDiff(11+seed, seed+1)}}},
			&Frame{Kind: FReq, From: seed % 4, To: (seed + 2) % 4, Tag: 200 + seed, Bytes: 24,
				Payload: &DiffRequest{Req: seed % 4, Pages: []int32{seed, seed + 7},
					Applied: [][]int32{{seed, 1, 2, 3}, {0, seed, 0, 1}}}},
			&Frame{Kind: FHand, From: (seed + 1) % 4, To: seed % 4, Tag: 1,
				Payload: &Grant{Bytes: 300 + seed,
					Intervals: []OwnedInterval{{Owner: seed % 4, Idx: seed + 1,
						IV: Interval{Pages: []PageRef{{Page: seed}, {Page: seed + 1, Whole: seed%2 == 0}}}}},
					Served: []Diff{mkDiff(20+seed, seed+2)},
					Pushed: CoalesceDiffs(nil, []Diff{mkDiff(30+seed, seed+3), mkDiff(31+seed, seed+3)})}},
		)
	}
	return frames
}

// TestFrameReaderAliasing pins the decode arena's ownership contract:
// frames decoded by one FrameReader own disjoint storage, so a payload
// held across later ReadInto calls — which reuse the reader's Frame,
// arena tails, and (on the encode side) the pooled buffers — is never
// clobbered. The writer runs concurrently over a pipe and encodes through
// GetBuf/PutBuf, so under -race this also checks the pool and pipe
// happens-before edges. Every held frame must re-encode byte-identical to
// what was sent.
func TestFrameReaderAliasing(t *testing.T) {
	frames := aliasFrames()
	const rounds = 50
	var want [][]byte
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			enc, err := AppendFrame(nil, f)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, enc)
		}
	}
	pr, pw := io.Pipe()
	writeErr := make(chan error, 1)
	go func() {
		defer pw.Close()
		for r := 0; r < rounds; r++ {
			for _, f := range frames {
				buf := GetBuf()
				enc, err := AppendFrame(buf[:0], f)
				if err != nil {
					writeErr <- err
					return
				}
				if _, err := pw.Write(enc); err != nil {
					writeErr <- err
					return
				}
				PutBuf(enc)
			}
		}
		writeErr <- nil
	}()

	fr := NewFrameReader(pr)
	var f Frame
	held := make([]Frame, 0, len(want))
	for range want {
		if err := fr.ReadInto(&f); err != nil {
			t.Fatal(err)
		}
		held = append(held, f) // shallow copy: payload slices stay in arena storage
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	for i := range held {
		enc, err := AppendFrame(nil, &held[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want[i]) {
			t.Fatalf("held frame %d re-encodes differently after later decodes reused the arena", i)
		}
	}
}
