package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Ring wraparound must drop the oldest records and count every drop.
func TestRingWraparoundDropsOldest(t *testing.T) {
	m := NewMachine(1, 4, false)
	tr := m.Nodes[0]
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: EvFault, VT: int64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("ring len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.VT != want {
			t.Fatalf("event %d has VT %d, want %d (oldest must go first)", i, e.VT, want)
		}
	}
}

// A ring grows with what it records: building an 8-node machine at the
// default capacity allocates well under 1 MiB, not the 32 MiB of eight
// rings made at full size.
func TestNewMachineAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMachine(8, 0, false)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= 1<<20 {
		t.Fatalf("NewMachine(8, 0, false) allocated %d bytes, want under 1 MiB", got)
	}
	t.Logf("NewMachine(8, 0, false) allocated %d bytes", got)
}

// Histogram boundaries are inclusive upper bounds; values above the last
// bound land in the overflow bucket; sum/max/n track exactly.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 101, 1000, 1001, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	wantCounts := []int64{2, 2, 2, 2} // (..10], (10..100], (100..1000], overflow
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.N != 8 || s.Max != 5000 || s.Sum != 1+10+11+100+101+1000+1001+5000 {
		t.Fatalf("n=%d max=%d sum=%d", s.N, s.Max, s.Sum)
	}
	if q := s.Quantile(0.50); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := s.Quantile(1.0); q != 5000 {
		t.Fatalf("p100 = %d, want max 5000", q)
	}
}

// TestQuantileRoundsRankUp: p99 of ten observations is the tenth
// smallest, so nine in the low bucket and one in the next must report the
// next bucket's bound — the rank q·N rounds up, or the estimate falls
// below the quantile it bounds.
func TestQuantileRoundsRankUp(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", []int64{10, 100})
	for i := 0; i < 9; i++ {
		h.Observe(5)
	}
	h.Observe(50)
	s := r.Snapshot().Histograms["h"]
	if q := s.Quantile(0.99); q != 100 {
		t.Fatalf("p99 = %d, want 100", q)
	}
	if q := s.Quantile(0.5); q != 10 {
		t.Fatalf("p50 = %d, want 10", q)
	}
}

// Concurrent emits, counter adds, and histogram observes must be safe: the
// real backend serves wsync fetches from other nodes' goroutines, so the
// tracer sees genuine concurrency. Run under -race.
func TestConcurrentEmit(t *testing.T) {
	m := NewMachine(4, 64, true)
	c := m.Reg.Counter("c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := m.Nodes[g%4]
			for i := 0; i < 1000; i++ {
				tr.Emit(Event{Kind: EvServe, VT: int64(i), WT: tr.WallNow()})
				tr.NextServeSeq(g % 4)
				c.Inc()
				m.ChainLen.Observe(int64(i % 7))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	total := int64(0)
	for _, tr := range m.Nodes {
		total += int64(tr.Len()) + tr.Dropped()
	}
	if total != 8000 {
		t.Fatalf("kept+dropped = %d, want 8000", total)
	}
	s := m.Reg.Snapshot()
	if s.Histograms["serve.chain.len"].N != 8000 {
		t.Fatalf("hist n = %d, want 8000", s.Histograms["serve.chain.len"].N)
	}
}

// The exported JSON must be valid and carry every emitted record plus the
// per-node metadata; the analyzer must accept its own exporter's output.
func TestWriteTraceRoundTrip(t *testing.T) {
	m := NewMachine(2, 16, false)
	m.Nodes[0].Emit(Event{Kind: EvFault, VT: 1000, Dur: 500, Page: 3, A: 1})
	seq := m.Nodes[0].NextFetchSeq(1)
	m.Nodes[0].Emit(Event{Kind: EvFetchReq, VT: 1100, Page: 3, Peer: 1, A: 1, Seq: seq})
	m.Nodes[1].Emit(Event{Kind: EvServe, VT: 1200, Dur: 300, Page: 3, Peer: 0, A: 2, B: 128, Seq: m.Nodes[1].NextServeSeq(0)})
	m.Nodes[0].Emit(Event{Kind: EvBarArrive, VT: 2000, A: 9, B: 1})
	m.Nodes[0].Emit(Event{Kind: EvBarDepart, VT: 2000, Dur: 700, A: 9, B: 1})
	m.Nodes[1].Emit(Event{Kind: EvNotice, VT: 1900, Page: 3, A: 0, B: 64, C: 2})
	m.Nodes[0].Emit(Event{Kind: EvNotice, VT: 1900, Page: 3, A: 2048, B: 4096, C: 2})

	var buf bytes.Buffer
	if err := WriteTrace(&buf, m); err != nil {
		t.Fatal(err)
	}
	var parsed rawTrace
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 thread_name + 1 process_name metadata, 7 events, 2 flow events.
	if len(parsed.TraceEvents) != 12 {
		t.Fatalf("trace has %d events, want 12", len(parsed.TraceEvents))
	}

	rep, err := Analyze(buf.Bytes(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path", "top pages by faults", "false-sharing suspects", "lock contention", "page 3:"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("analyzer report missing %q:\n%s", want, rep)
		}
	}
}

// FormatSnapshot output is sorted and stable.
func TestFormatSnapshot(t *testing.T) {
	s := NewSnapshot()
	s.Set("b.two", 2)
	s.Set("a.one", 1)
	s.Set("zero", 0) // dropped
	got := FormatSnapshot(s, "  ")
	want := "  a.one   1\n  b.two   2\n"
	if got != want {
		t.Fatalf("FormatSnapshot = %q, want %q", got, want)
	}
}

// AddFields sums int64 fields only; SetFields names tagged fields by their
// obs tag, skips untagged ones, and drops zeros like Set.
func TestAddAndSetFields(t *testing.T) {
	type ctrs struct {
		A    int64 `obs:"x.a"`
		B    int64 `obs:"x.b"`
		Zero int64 `obs:"x.zero"`
		Note string
		Raw  int64
	}
	sum := ctrs{A: 1, Note: "kept"}
	AddFields(&sum, &ctrs{A: 2, B: 3, Raw: 4, Note: "ignored"})
	AddFields(&sum, &ctrs{B: 5})
	if want := (ctrs{A: 3, B: 8, Raw: 4, Note: "kept"}); sum != want {
		t.Fatalf("AddFields: got %+v, want %+v", sum, want)
	}
	s := NewSnapshot()
	s.SetFields(&sum)
	if len(s.Counters) != 2 || s.Counters["x.a"] != 3 || s.Counters["x.b"] != 8 {
		t.Fatalf("SetFields: got %v, want x.a=3 x.b=8 only", s.Counters)
	}
}

// TestStartProfilesWritesEachFile pins what the commands' -cpuprofile,
// -memprofile and -exectrace flags promise: each path given to
// StartProfiles is a non-empty file once stop returns, alone or together,
// and no path means no file.
func TestStartProfilesWritesEachFile(t *testing.T) {
	dir := t.TempDir()
	for _, c := range [][3]string{{"cpu", "", ""}, {"", "mem", ""}, {"", "", "trace"}, {"cpu", "mem", "trace"}, {"", "", ""}} {
		var paths [3]string
		for i, name := range c {
			if name != "" {
				paths[i] = filepath.Join(dir, strings.Join(c[:], "-")+"."+name)
			}
		}
		stop, err := StartProfiles(paths[0], paths[1], paths[2])
		if err != nil {
			t.Fatalf("%v: start: %v", c, err)
		}
		sink := 0.0
		for i := 0; i < 1_000_000; i++ { // something for the profilers to see
			sink += float64(i)
		}
		_ = sink
		if err := stop(); err != nil {
			t.Fatalf("%v: stop: %v", c, err)
		}
		for _, p := range paths {
			if p == "" {
				continue
			}
			if st, err := os.Stat(p); err != nil || st.Size() == 0 {
				t.Errorf("%v: %s: %v, want a non-empty file", c, filepath.Base(p), err)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 6 {
		t.Errorf("%d files written, want 6: %q", len(left), left)
	}
	if _, err := StartProfiles("", "", filepath.Join(dir, "no", "such", "dir")); err == nil {
		t.Error("an uncreatable -exectrace path was accepted")
	}
}

// TestNilCounter pins the unobserved-run contract emit sites rely on: a
// nil *Counter accepts Add and Inc and reads zero.
func TestNilCounter(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(41)
	if v := c.Value(); v != 0 {
		t.Fatalf("nil counter reads %d", v)
	}
	c = new(Counter)
	c.Inc()
	c.Add(41)
	if v := c.Value(); v != 42 {
		t.Fatalf("counter reads %d, want 42", v)
	}
}
