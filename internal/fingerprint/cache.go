package fingerprint

import (
	"container/list"
	"math"
	"sync"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
)

// Cache memoizes fingerprint database builds behind a key that captures
// everything a build depends on: the model's kernel parameters (field rect
// and minimum approach distance), the grid bounds and resolution, and the
// sample-point layout. Two trackers asking for the same database — the four
// tiles of a sharded field sharing one vantage, repeated trials over one
// scenario, a latency benchmark rebuilding a tracker per repeat — get the
// same immutable *DB back instead of paying the cells×samples kernel build
// again.
//
// A Cache is safe for concurrent use; concurrent requests for the same key
// build once (singleflight) and share the result. A nil *Cache is the
// disabled cache: Get on it builds directly, so callers thread an optional
// cache through one code path.
//
// Determinism: a DB is a pure function of its key, so substituting a cached
// build for a fresh one can never change search output. The key hashes the
// sample points; a hit additionally verifies the stored points match
// elementwise (a hash collision falls back to an uncached direct build
// rather than returning a wrong database).
//
// The cache is bounded: when inserting a new key would exceed the capacity,
// the least-recently-used entry is evicted first. Eviction never invalidates
// a database a tracker still holds — a *DB is immutable and shared by
// pointer, so dropping it from the cache only means the next request for
// that key rebuilds. Recency is updated on every Get, so the eviction order
// is a pure function of the Get sequence (deterministic for any serial
// caller), and since every build is a pure function of its key, no eviction
// decision can ever change search output.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*cacheEntry
	lru     list.List // front = most recent; values are cacheKey
}

// cacheKey identifies one database build. The points themselves live in the
// entry (keys must be comparable); the key carries their count and hash.
type cacheKey struct {
	field   geom.Rect // kernel geometry
	minDist float64   // kernel regularization
	bounds  geom.Rect // grid coverage
	res     int       // grid resolution per axis
	n       int       // sample-point count
	hash    uint64    // FNV-1a over the sample-point coordinates
}

type cacheEntry struct {
	once   sync.Once
	points []geom.Point // build-time layout, kept for collision verification
	db     *DB
	err    error
	elem   *list.Element // position in the recency list (guarded by Cache.mu)
}

// DefaultCacheCapacity bounds how many databases a Cache retains when
// NewCache is given no explicit capacity. A 32×32 shard sweep touches up to
// 1024 distinct tile databases; the bound keeps only the hot working set
// live and lets the rest be rebuilt on demand.
const DefaultCacheCapacity = 256

// NewCache returns an empty database cache holding at most capacity
// databases (<= 0 means DefaultCacheCapacity); beyond that the
// least-recently-used database is evicted.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	c := &Cache{cap: capacity, entries: make(map[cacheKey]*cacheEntry)}
	c.lru.Init()
	return c
}

// Get returns the database for (model, bounds, points, cfg), building it on
// first use and memoizing it for later callers. workers and m apply only to
// a build this call performs (a hit ignores them — the database contents do
// not depend on either). A nil receiver builds directly without caching. A
// non-nil metrics registry receives fingerprint.cache.hits and
// fingerprint.cache.misses alongside the build's own counters.
func (c *Cache) Get(model *fluxmodel.Model, bounds geom.Rect, points []geom.Point,
	cfg CoarseConfig, workers int, m *obs.Metrics) (*DB, error) {
	if c == nil || model == nil {
		return NewDBOver(model, bounds, points, cfg, workers, m)
	}
	cfg = cfg.WithDefaults()
	key := cacheKey{
		field:   model.Field(),
		minDist: model.MinDist(),
		bounds:  bounds,
		res:     cfg.GridRes,
		n:       len(points),
		hash:    hashPoints(points),
	}

	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(e.elem)
	} else {
		evicted := 0
		for len(c.entries) >= c.cap {
			// Evict the least-recently-used database. Live trackers holding
			// the evicted *DB are unaffected; only a future request for that
			// key pays a rebuild.
			oldest := c.lru.Back()
			if oldest == nil {
				break
			}
			delete(c.entries, oldest.Value.(cacheKey))
			c.lru.Remove(oldest)
			evicted++
		}
		e = &cacheEntry{points: append([]geom.Point(nil), points...)}
		e.elem = c.lru.PushFront(key)
		c.entries[key] = e
		if m != nil && evicted > 0 {
			m.Counter("fingerprint.cache.evictions").Add(0, uint64(evicted))
		}
	}
	c.mu.Unlock()

	if m != nil {
		if ok {
			m.Counter("fingerprint.cache.hits").Inc(0)
		} else {
			m.Counter("fingerprint.cache.misses").Inc(0)
		}
	}
	e.once.Do(func() {
		e.db, e.err = NewDBOver(model, bounds, points, cfg, workers, m)
	})
	if e.err != nil {
		return nil, e.err
	}
	if ok && !samePoints(e.points, points) {
		// FNV collision between distinct layouts: serve a correct fresh
		// build instead of the colliding entry.
		return NewDBOver(model, bounds, points, cfg, workers, m)
	}
	return e.db, nil
}

// hashPoints is FNV-1a over the raw coordinate bits, order-sensitive: the
// column layout of a database follows the point order, so permuted layouts
// must key differently.
func hashPoints(points []geom.Point) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	for _, p := range points {
		mix(math.Float64bits(p.X))
		mix(math.Float64bits(p.Y))
	}
	return h
}

func samePoints(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
