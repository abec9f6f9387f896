package obs

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The unified metrics registry. Counters are atomic int64s; histograms have
// fixed bucket bounds chosen at registration, so observation never
// allocates. A Snapshot is the single reporting surface: the harness folds
// the protocol/VM/host/recovery aggregates into it after a run,
// sdsm-run and sdsm-compile print it through FormatSnapshot, and the
// benchmark's traced pass reads its histograms' quantiles.

// Counter is a monotonically increasing metric. A nil *Counter is the
// counter of an unobserved run: it counts nothing and reads zero, so
// emit sites hold a possibly-nil counter and call it unguarded.
type Counter struct {
	v int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		atomic.AddInt64(&c.v, d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits ("le"); an implicit overflow bucket catches everything above
// the last bound. Observe is safe for concurrent use.
type Histogram struct {
	bounds []int64
	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last is overflow
	sum    int64
	max    int64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Standard bucket bounds. Shared by the pre-registered protocol histograms
// and documented in DESIGN.md §11 so trace consumers can rely on them.
var (
	// LatencyBounds covers virtual-time latencies in nanoseconds, 1µs–50ms.
	LatencyBounds = []int64{
		1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000,
		500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000, 50_000_000,
	}
	// ChainBounds covers diff chain lengths (diffs applied per fetched page).
	ChainBounds = []int64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}
	// ByteBounds covers message/grant sizes in bytes.
	ByteBounds = []int64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
)

// Registry holds named counters and histograms.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ctrs: map[string]*Counter{}, hists: map[string]*Histogram{}}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	r.mu.Unlock()
	return c
}

// NewHistogram registers a histogram with the given bucket bounds, which
// must be sorted ascending. Registering an existing name returns the
// existing histogram.
func (r *Registry) NewHistogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// HistSnap is a histogram's state in a Snapshot.
type HistSnap struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is overflow
	Sum    int64   `json:"sum"`
	Max    int64   `json:"max"`
	N      int64   `json:"n"`
}

// Quantile returns an upper-bound estimate for quantile q in [0,1]: the
// bucket bound at which the cumulative count reaches q·N (the recorded
// maximum for the overflow bucket). Returns 0 for an empty histogram.
func (h HistSnap) Quantile(q float64) int64 {
	if h.N == 0 {
		return 0
	}
	// The rank rounds up: rounding down could stop a bucket short of the
	// quantile and break the upper bound.
	want := max(int64(math.Ceil(q*float64(h.N))), 1)
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= want {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// Snapshot is a point-in-time copy of a registry plus the folded run
// aggregates. Counters with value zero are omitted: a counter that never
// fired (adapt disabled, recovery off) should not clutter the dump, which
// reproduces the old conditional stat lines through data instead of code.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Histograms map[string]HistSnap `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistSnap{}}
	r.mu.Lock()
	for name, c := range r.ctrs {
		if v := c.Value(); v != 0 {
			s.Counters[name] = v
		}
	}
	for name, h := range r.hists {
		h.mu.Lock()
		if h.n != 0 {
			s.Histograms[name] = HistSnap{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: append([]int64(nil), h.counts...),
				Sum:    h.sum, Max: h.max, N: h.n,
			}
		}
		h.mu.Unlock()
	}
	r.mu.Unlock()
	return s
}

// Set stores a counter value into the snapshot (zero values are dropped,
// matching Registry.Snapshot's convention).
func (s *Snapshot) Set(name string, v int64) {
	if v != 0 {
		s.Counters[name] = v
	}
}

// SetFields stores every field of the struct v points to that carries an
// `obs:"name"` tag under that name. The tag is the one place a run
// aggregate's snapshot name is written (vm.Counters, tmk.ProtocolStats,
// tmk.RecoveryStats); tagged fields must be int64. Reflection runs once
// per snapshot, off every hot path.
func (s *Snapshot) SetFields(v any) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if name := rv.Type().Field(i).Tag.Get("obs"); name != "" {
			s.Set(name, rv.Field(i).Int())
		}
	}
}

// AddFields adds every int64 field of *src into the same field of *dst:
// the per-node → machine sum of a counter struct, written once for all of
// them (once per run, like SetFields).
func AddFields[T any](dst, src *T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + s.Field(i).Int())
		}
	}
}

// NewSnapshot returns an empty snapshot for callers that fold aggregates
// without a live registry (untraced runs).
func NewSnapshot() *Snapshot {
	return &Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistSnap{}}
}

// FormatSnapshot renders the snapshot as aligned "name value" lines,
// counters first (sorted), then one summary line per histogram. The output
// is deterministic; every command's stats dump goes through this one path.
func FormatSnapshot(s *Snapshot, indent string) string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	width := 0
	for name := range s.Counters {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s%-*s %d\n", indent, width+2, name, s.Counters[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%s%s: n=%d sum=%d max=%d p50<=%d p90<=%d p99<=%d\n",
			indent, name, h.N, h.Sum, h.Max,
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
	return b.String()
}
