package stream

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// WCache is the paper's wCache operator: an index for answering equality
// constraints on the window-id column when many continuous queries read
// the same stream. The first query to ask for a window materialises it;
// the others hit the cache, so N queries over one stream share one
// windowing pass.
//
// Entries older than the watermark are evicted. The watermark unit is
// the window END TIMESTAMP (milliseconds), not the per-spec window id:
// consumers with different slides produce ids on different scales, so
// end times are the only mark comparable across every cached spec.
type WCache struct {
	mu      sync.Mutex
	entries map[wcKey]wcEntry
	// consumer watermarks: per consumer id, the end timestamp of the
	// last window it executed. Eviction keeps every entry whose window
	// ends at or after the min over consumers.
	marks map[string]int64
	// minMark caches the exact min over marks (0 when empty) so the
	// common Advance (a consumer that is not the laggard moving
	// forward) is O(1) instead of rescanning every mark and every
	// cached window. Entries below minMark have already been evicted.
	minMark int64

	// hits/misses are telemetry counters so the engine's registry sees
	// cache traffic live; standalone caches get private counters.
	hits   *telemetry.Counter
	misses *telemetry.Counter

	// bytes is the running estimate of cached batch memory; budget, when
	// positive, caps it — Put/Get evict the oldest windows to stay under
	// (counted by shed). The watermark eviction is correctness (never
	// hands out a window a consumer has passed); the budget eviction is
	// governance (a cold window may be re-materialised on demand).
	bytes  int64
	budget int64
	shed   *telemetry.Counter
}

// wcEntry caches one batch plus its byte estimate so eviction never
// rescans rows.
type wcEntry struct {
	b     Batch
	bytes int64
}

type wcKey struct {
	stream string
	spec   WindowSpec
	window int64
}

// NewWCache returns an empty cache.
func NewWCache() *WCache {
	return &WCache{
		entries: make(map[wcKey]wcEntry),
		marks:   make(map[string]int64),
		hits:    &telemetry.Counter{},
		misses:  &telemetry.Counter{},
		shed:    &telemetry.Counter{},
	}
}

// UseCounters rebinds the hit/miss counters (e.g. to an engine's
// metrics registry). Call before the cache sees traffic.
func (c *WCache) UseCounters(hits, misses *telemetry.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses = hits, misses
}

// UseShedCounter rebinds the budget-eviction counter (e.g. to an
// engine's `exastream.wcache.shed`).
func (c *WCache) UseShedCounter(shed *telemetry.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shed = shed
}

// SetBudget caps the cache's byte estimate; 0 (the default) disables
// the cap. Takes effect on the next insert.
func (c *WCache) SetBudget(bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = bytes
}

// Bytes returns the current byte estimate of cached batches.
func (c *WCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Counts returns the hit/miss counters as one consistent pair.
func (c *WCache) Counts() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.misses.Value()
}

// MinMark returns the smallest watermark across registered consumers —
// the end timestamp of the oldest window any consumer may still need.
// Telemetry derives the watermark-lag gauge from it.
func (c *WCache) MinMark() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.minMark
}

// Register adds a consumer; its watermark starts at 0.
func (c *WCache) Register(consumer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.marks[consumer]; !ok {
		c.marks[consumer] = 0
		if len(c.marks) == 1 || c.minMark > 0 {
			c.minMark = 0
		}
	}
}

// Unregister removes a consumer and may unblock eviction.
func (c *WCache) Unregister(consumer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.marks, consumer)
	c.evictLocked()
}

// Advance moves a consumer's watermark to windowEnd (the end timestamp
// of the window it just executed); windows ending before the minimum
// watermark across consumers are evicted. A consumer that is not
// registered is ignored: a window execution still in flight when its
// query was unregistered must not re-add a mark that nothing would ever
// advance or remove again, pinning the cache forever.
func (c *WCache) Advance(consumer string, windowEnd int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.marks[consumer]
	if !ok || windowEnd <= cur {
		return
	}
	c.marks[consumer] = windowEnd
	if cur > c.minMark {
		// Not the laggard: the minimum is held by someone else, so it
		// cannot have moved and nothing new is evictable.
		return
	}
	c.evictLocked()
}

func (c *WCache) evictLocked() {
	if len(c.marks) == 0 {
		// Last consumer gone: nothing can pin a batch any more, so drop
		// them all and reset the watermark — a future registration (e.g.
		// the checkpoint path's transient consumer, or a fresh query)
		// starts from a clean cache rather than inheriting a stale
		// high-water mark.
		if len(c.entries) > 0 {
			c.entries = make(map[wcKey]wcEntry)
		}
		c.bytes = 0
		c.minMark = 0
		return
	}
	min := int64(1<<62 - 1)
	for _, m := range c.marks {
		if m < min {
			min = m
		}
	}
	if min <= c.minMark {
		c.minMark = min
		return
	}
	c.minMark = min
	for k, e := range c.entries {
		if e.b.End < min {
			c.bytes -= e.bytes
			delete(c.entries, k)
		}
	}
}

// enforceBudgetLocked evicts the globally-oldest cached windows until
// the byte estimate fits the budget. keep pins the entry that triggered
// enforcement: if it alone exceeds the budget the cache holds just it
// rather than thrashing (evicting it would only force an immediate
// re-materialisation).
func (c *WCache) enforceBudgetLocked(keep wcKey) {
	if c.budget <= 0 {
		return
	}
	for c.bytes > c.budget {
		victim := keep
		oldest := int64(1<<62 - 1)
		for k, e := range c.entries {
			if k == keep {
				continue
			}
			if e.b.End < oldest {
				oldest, victim = e.b.End, k
			}
		}
		if victim == keep {
			return
		}
		c.bytes -= c.entries[victim].bytes
		delete(c.entries, victim)
		c.shed.Inc()
	}
}

// Get returns the cached batch for (stream, spec, windowID); when absent
// it calls materialise, stores the result, and returns it. Concurrent
// callers for the same key may both materialise; the last write wins,
// which is harmless because materialisation is deterministic.
func (c *WCache) Get(stream string, spec WindowSpec, windowID int64, materialise func() (Batch, error)) (Batch, error) {
	key := wcKey{stream, spec, windowID}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits.Inc()
		c.mu.Unlock()
		return e.b, nil
	}
	c.misses.Inc()
	c.mu.Unlock()

	b, err := materialise()
	if err != nil {
		return Batch{}, err
	}
	if b.WindowID != windowID {
		return Batch{}, fmt.Errorf("stream: wCache: materialiser returned window %d, want %d", b.WindowID, windowID)
	}
	c.mu.Lock()
	c.storeLocked(key, b)
	c.mu.Unlock()
	return b, nil
}

// Put stores a batch directly (the windowing pass pushes completed
// windows here).
func (c *WCache) Put(stream string, spec WindowSpec, b Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(wcKey{stream, spec, b.WindowID}, b)
}

// storeLocked inserts or replaces an entry, keeping the byte estimate
// consistent and enforcing the budget. The stored batch always carries
// a columnar cell so every Get copy shares one transpose (restored
// checkpoint batches arrive without one). The byte estimate is taken at
// store time; an engine that wants the columnar footprint accounted
// transposes before Put (the vectorized window path does).
func (c *WCache) storeLocked(key wcKey, b Batch) {
	if old, ok := c.entries[key]; ok {
		c.bytes -= old.bytes
	}
	b.ensureColumnCell()
	e := wcEntry{b: b, bytes: b.Bytes()}
	c.entries[key] = e
	c.bytes += e.bytes
	c.enforceBudgetLocked(key)
}

// CachedWindow is one wCache entry in serializable form, used by the
// recovery checkpoint to carry materialised window batches across a
// restore.
type CachedWindow struct {
	Stream string
	Spec   WindowSpec
	Batch  Batch
}

// SnapshotBatches returns every cached batch in a deterministic order
// (stream, spec, window id). Callers snapshotting for a checkpoint
// should hold a registered consumer mark so concurrent Advance calls
// cannot evict entries mid-copy.
func (c *WCache) SnapshotBatches() []CachedWindow {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedWindow, 0, len(c.entries))
	for k, e := range c.entries {
		out = append(out, CachedWindow{Stream: k.stream, Spec: k.spec, Batch: e.b})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Stream != b.Stream {
			return a.Stream < b.Stream
		}
		if a.Spec != b.Spec {
			if a.Spec.RangeMS != b.Spec.RangeMS {
				return a.Spec.RangeMS < b.Spec.RangeMS
			}
			if a.Spec.SlideMS != b.Spec.SlideMS {
				return a.Spec.SlideMS < b.Spec.SlideMS
			}
			return a.Spec.StartMS < b.Spec.StartMS
		}
		return a.Batch.WindowID < b.Batch.WindowID
	})
	return out
}

// RestoreBatches loads snapshotted entries into the cache. Entries
// ending below the current watermark are skipped (already evictable).
func (c *WCache) RestoreBatches(ws []CachedWindow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range ws {
		if w.Batch.End < c.minMark {
			continue
		}
		c.storeLocked(wcKey{w.Stream, w.Spec, w.Batch.WindowID}, w.Batch)
	}
}

// Len returns the number of cached batches.
func (c *WCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
