package fingerprint

import (
	"reflect"
	"sync"
	"testing"

	"fluxtrack/internal/fluxmodel"
	"fluxtrack/internal/geom"
	"fluxtrack/internal/obs"
)

func cacheTestModel(t *testing.T) *fluxmodel.Model {
	t.Helper()
	m, err := fluxmodel.New(geom.Square(30), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cacheTestPoints() []geom.Point {
	return []geom.Point{
		geom.Pt(3, 4), geom.Pt(10, 20), geom.Pt(25, 7), geom.Pt(14, 14), geom.Pt(28, 28),
	}
}

// Len returns how many databases the cache currently holds.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func TestCacheHitReturnsSameDB(t *testing.T) {
	model := cacheTestModel(t)
	pts := cacheTestPoints()
	cfg := CoarseConfig{Enabled: true, GridRes: 6}
	c := NewCache(0)
	db1, err := c.Get(model, model.Field(), pts, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := c.Get(model, model.Field(), pts, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db1 != db2 {
		t.Fatal("same key built twice")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}

	// A cached database must be indistinguishable from a fresh build.
	fresh, err := NewDBOver(model, model.Field(), pts, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dbView(db1), dbView(fresh)) {
		t.Fatal("cached database differs from a fresh build")
	}
}

// dbView flattens the comparable content of a DB.
func dbView(db *DB) any {
	type view struct {
		Bounds  geom.Rect
		Res     int
		N       int
		Cols    []float64
		Norms   []float64
		Centers []geom.Point
	}
	return view{
		Bounds: db.Bounds(), Res: db.Res(), N: db.NumSamples(),
		Cols: db.cols, Norms: db.norms, Centers: db.centers,
	}
}

func TestCacheKeyDiscrimination(t *testing.T) {
	model := cacheTestModel(t)
	pts := cacheTestPoints()
	c := NewCache(0)
	base, err := c.Get(model, model.Field(), pts, CoarseConfig{GridRes: 6}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Different grid resolution.
	other, err := c.Get(model, model.Field(), pts, CoarseConfig{GridRes: 8}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Fatal("GridRes not in the key")
	}
	// Different bounds (a tile of the field).
	tile := geom.NewRect(geom.Pt(0, 0), geom.Pt(15, 15))
	other, err = c.Get(model, tile, pts, CoarseConfig{GridRes: 6}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other == base || other.Bounds() != tile {
		t.Fatal("bounds not in the key")
	}
	// Different point layout.
	pts2 := append([]geom.Point(nil), pts...)
	pts2[0] = geom.Pt(1, 1)
	other, err = c.Get(model, model.Field(), pts2, CoarseConfig{GridRes: 6}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other == base {
		t.Fatal("points not in the key")
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

func TestCacheNilReceiverBuildsDirect(t *testing.T) {
	model := cacheTestModel(t)
	var c *Cache
	db1, err := c.Get(model, model.Field(), cacheTestPoints(), CoarseConfig{GridRes: 6}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := c.Get(model, model.Field(), cacheTestPoints(), CoarseConfig{GridRes: 6}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db1 == db2 {
		t.Fatal("nil cache memoized")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
}

func TestCacheCountersAndCapacity(t *testing.T) {
	model := cacheTestModel(t)
	pts := cacheTestPoints()
	m := obs.New(1)
	c := NewCache(1)
	if _, err := c.Get(model, model.Field(), pts, CoarseConfig{GridRes: 6}, 1, m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(model, model.Field(), pts, CoarseConfig{GridRes: 6}, 1, m); err != nil {
		t.Fatal(err)
	}
	// Cache full: a new key evicts the LRU entry and takes its place.
	if _, err := c.Get(model, model.Field(), pts, CoarseConfig{GridRes: 8}, 1, m); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (capacity)", c.Len())
	}
	hits := m.Counter("fingerprint.cache.hits").Value()
	misses := m.Counter("fingerprint.cache.misses").Value()
	evictions := m.Counter("fingerprint.cache.evictions").Value()
	if hits != 1 || misses != 2 || evictions != 1 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 1/2/1", hits, misses, evictions)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	model := cacheTestModel(t)
	pts := cacheTestPoints()
	m := obs.New(1)
	c := NewCache(2)
	get := func(res int) *DB {
		t.Helper()
		db, err := c.Get(model, model.Field(), pts, CoarseConfig{GridRes: res}, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	a := get(4) // cache: [a]
	b := get(5) // cache: [b a]
	_ = b
	// Touch a so b becomes least recently used.
	if got := get(4); got != a {
		t.Fatal("touching a rebuilt it")
	}
	get(6) // evicts b; cache: [c a]
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// a survived the eviction (it was most recently used) …
	if got := get(4); got != a {
		t.Fatal("a was evicted despite being most recently used")
	}
	// … and b was the one dropped: asking again rebuilds a distinct DB.
	if got := get(5); got == b {
		t.Fatal("b still cached after eviction")
	}
	if evictions := m.Counter("fingerprint.cache.evictions").Value(); evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (b first, then the GridRes=6 entry)", evictions)
	}
	// Eviction order is deterministic: replaying the same Get sequence on a
	// fresh cache evicts the same keys (observable as identical hit/miss
	// behavior, i.e. the same Len and the same survivors).
	c2 := NewCache(2)
	seq := []int{4, 5, 4, 6, 4, 5}
	var last *DB
	for _, res := range seq {
		db, err := c2.Get(model, model.Field(), pts, CoarseConfig{GridRes: res}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = db
	}
	if c2.Len() != 2 {
		t.Fatalf("replay Len = %d, want 2", c2.Len())
	}
	if db, _ := c2.Get(model, model.Field(), pts, CoarseConfig{GridRes: 5}, 1, nil); db != last {
		t.Fatal("replay: GridRes=5 should be the most recent entry")
	}
}

func TestCacheConcurrentSingleflight(t *testing.T) {
	model := cacheTestModel(t)
	pts := cacheTestPoints()
	c := NewCache(0)
	const goroutines = 8
	dbs := make([]*DB, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			db, err := c.Get(model, model.Field(), pts, CoarseConfig{GridRes: 6}, 1, nil)
			if err != nil {
				t.Error(err)
				return
			}
			dbs[g] = db
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if dbs[g] != dbs[0] {
			t.Fatal("concurrent gets returned distinct databases")
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}
