package datalog

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/datalog/ra"
	"repro/internal/structure"
)

// DB stores relations over interned constants: the extensional database
// the engine evaluates against, and — after evaluation — the computed
// intensional relations.
type DB struct {
	names  []string
	byName map[string]int
	rels   map[string]*relation

	// deltaIx caches ApplyDelta's scheduling index (stratification,
	// consumer indexes, rule plans) across calls against this database;
	// it is keyed by program identity inside ApplyDeltaCtx and never
	// survives Clone.
	deltaIx *deltaIndex
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{byName: map[string]int{}, rels: map[string]*relation{}}
}

// Tuples are hashed with FNV-1a folding whole words per element; equality
// is verified element-wise on probe, so hash quality only affects speed,
// never correctness.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashTuple(tuple []int) uint64 {
	h := fnvOffset64
	for _, v := range tuple {
		h ^= uint64(v)
		h *= fnvPrime64
	}
	return h
}

func hashProj(tuple []int, positions []int) uint64 {
	h := fnvOffset64
	for _, p := range positions {
		h ^= uint64(tuple[p])
		h *= fnvPrime64
	}
	return h
}

func equalTuple(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// index accelerates probe for one set of bound positions. Buckets hold
// indices into relation.tuples in insertion order, so candidates are
// always listed in insertion order regardless of which index serves them.
type index struct {
	positions []int  // the indexed (bound) positions, ascending
	mask      uint64 // bitmask of positions
	buckets   map[uint64][]int32
}

// maxReuseBucket is the selectivity threshold for answering a probe from
// an existing index on a subset of the bound positions (with residual
// filtering) instead of building a dedicated index: reuse only while the
// average bucket holds at most this many tuples.
const maxReuseBucket = 4

// relation stores the tuples of one predicate.
//
// Dedup uses an open-addressed probe table (slots) instead of a Go map:
// a slot holds tupleIndex+1 (0 = empty) and collisions resolve by linear
// probing with element-wise equality checks, so insertion performs no
// per-entry allocation.
//
// Concurrency: probe and has may be called from many goroutines during a
// parallel evaluation round, during which no inserts happen (derivations
// are buffered and merged serially between rounds — the WaitGroup
// barrier orders the phases). The only cross-goroutine mutation is the
// lazy construction of probe indexes, which mu guards; tuples, slots and
// existing index buckets are immutable while readers are active.
type relation struct {
	arity  int
	dedup  bool // delta relations skip dedup: their tuples are pre-deduplicated
	tuples [][]int
	slots  []int32 // open-addressed dedup table; nil until first insert

	mu      sync.RWMutex
	indexes map[uint64]*index // bound-position mask → serving index (may alias a subset index)
	live    []*index          // distinct indexes maintained incrementally by insert
	builds  int               // full index constructions (inserts never reset indexes)
}

func newRelation(arity int) *relation {
	return &relation{arity: arity, dedup: true, indexes: map[uint64]*index{}}
}

// newDeltaRelation returns a relation for semi-naive deltas: appendShared
// adds pre-deduplicated tuples with no hashing, copying, or probing.
func newDeltaRelation(arity int) *relation {
	return &relation{arity: arity, indexes: map[uint64]*index{}}
}

// grow (re)builds the probe table at double capacity.
func (r *relation) grow() {
	n := 2 * len(r.slots)
	if n < 16 {
		n = 16
	}
	slots := make([]int32, n)
	mask := uint64(n - 1)
	for ti, t := range r.tuples {
		i := hashTuple(t) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(ti + 1)
	}
	r.slots = slots
}

// insert adds a tuple (copied); reports whether it was new. Live indexes
// are maintained incrementally — an insert never invalidates them.
func (r *relation) insert(tuple []int) bool {
	return r.add(tuple, true)
}

// insertOwned is insert for a tuple the caller relinquishes: on success
// the relation adopts the slice instead of copying it. The tuple must not
// be mutated afterwards.
func (r *relation) insertOwned(tuple []int) bool {
	return r.add(tuple, false)
}

// insertRow is insert for a row the caller keeps reusing (a streaming
// operator's output buffer): only a genuinely new tuple is copied, and
// the stored copy is returned so the delta relation can share it.
func (r *relation) insertRow(row []int) ([]int, bool) {
	return r.addRow(row, true)
}

func (r *relation) add(tuple []int, copyTuple bool) bool {
	_, added := r.addRow(tuple, copyTuple)
	return added
}

func (r *relation) addRow(tuple []int, copyTuple bool) ([]int, bool) {
	if 4*(len(r.tuples)+1) > 3*len(r.slots) {
		r.grow()
	}
	mask := uint64(len(r.slots) - 1)
	i := hashTuple(tuple) & mask
	for {
		s := r.slots[i]
		if s == 0 {
			break
		}
		if t := r.tuples[s-1]; equalTuple(t, tuple) {
			return t, false
		}
		i = (i + 1) & mask
	}
	t := tuple
	if copyTuple {
		t = make([]int, len(tuple))
		copy(t, tuple)
	}
	ti := int32(len(r.tuples))
	r.tuples = append(r.tuples, t)
	r.slots[i] = ti + 1
	for _, idx := range r.live {
		ph := hashProj(t, idx.positions)
		idx.buckets[ph] = append(idx.buckets[ph], ti)
	}
	return t, true
}

// appendShared appends a tuple known to be absent (delta relations only);
// the slice is shared with the owning relation, not copied.
func (r *relation) appendShared(tuple []int) {
	ti := int32(len(r.tuples))
	r.tuples = append(r.tuples, tuple)
	for _, idx := range r.live {
		ph := hashProj(tuple, idx.positions)
		idx.buckets[ph] = append(idx.buckets[ph], ti)
	}
}

// ofArity returns r when it stores tuples of the given arity, else nil
// (an empty relation): an atom matches no tuple of another arity. Every
// join that binds an atom to a stored relation goes through it.
func ofArity(r *relation, arity int) *relation {
	if r == nil || r.arity != arity {
		return nil
	}
	return r
}

func (r *relation) has(tuple []int) bool {
	_, ok := r.lookup(tuple)
	return ok
}

// lookup returns the stored tuple equal to the argument. The boolean
// carries presence: a stored zero-arity tuple may be a nil slice.
func (r *relation) lookup(tuple []int) ([]int, bool) {
	if len(r.slots) == 0 {
		return nil, false
	}
	mask := uint64(len(r.slots) - 1)
	i := hashTuple(tuple) & mask
	for {
		s := r.slots[i]
		if s == 0 {
			return nil, false
		}
		if t := r.tuples[s-1]; equalTuple(t, tuple) {
			return t, true
		}
		i = (i + 1) & mask
	}
}

// lookupIdx returns the storage index of the tuple, or -1.
func (r *relation) lookupIdx(tuple []int) int {
	if len(r.slots) == 0 {
		return -1
	}
	mask := uint64(len(r.slots) - 1)
	i := hashTuple(tuple) & mask
	for {
		s := r.slots[i]
		if s == 0 {
			return -1
		}
		if equalTuple(r.tuples[s-1], tuple) {
			return int(s - 1)
		}
		i = (i + 1) & mask
	}
}

// removeBatch deletes every listed tuple that is present, compacting
// storage (surviving tuples keep their relative order) and rebuilding
// the dedup table in one pass. Probe indexes are discarded and rebuilt
// lazily — deletion is the one mutation that invalidates them, so the
// "inserts never rebuild" guarantee is unaffected. Only dedup relations
// support removal. Returns the number of tuples removed.
//
// Like insert, removeBatch must not run concurrently with readers.
func (r *relation) removeBatch(tuples [][]int) int {
	if !r.dedup {
		panic("datalog: removeBatch on a delta relation")
	}
	var dead map[int]struct{}
	for _, t := range tuples {
		if ti := r.lookupIdx(t); ti >= 0 {
			if dead == nil {
				dead = make(map[int]struct{}, len(tuples))
			}
			dead[ti] = struct{}{}
		}
	}
	if len(dead) == 0 {
		return 0
	}
	out := r.tuples[:0]
	for i, t := range r.tuples {
		if _, d := dead[i]; !d {
			out = append(out, t)
		}
	}
	for i := len(out); i < len(r.tuples); i++ {
		r.tuples[i] = nil
	}
	r.tuples = out
	for i := range r.slots {
		r.slots[i] = 0
	}
	mask := uint64(len(r.slots) - 1)
	for ti, t := range r.tuples {
		i := hashTuple(t) & mask
		for r.slots[i] != 0 {
			i = (i + 1) & mask
		}
		r.slots[i] = int32(ti + 1)
	}
	r.mu.Lock()
	r.indexes = map[uint64]*index{}
	r.live = nil
	r.mu.Unlock()
	return len(dead)
}

// probe answers a streaming-layer Probe for pattern, where pattern[i] < 0
// means "unbound". It is zero-copy: the candidates reference the
// relation's own storage — an exact-match lookup hit, an incrementally
// maintained index bucket on the bound positions (or on a sufficiently
// selective subset of them), or the full tuple array — in insertion
// order, and the caller re-checks each candidate against the pattern.
func (r *relation) probe(pattern []int, c *ra.Candidates) {
	var boundArr [16]int
	bound := boundArr[:0]
	var mask uint64
	for i, v := range pattern {
		if v >= 0 {
			bound = append(bound, i)
			if i < 64 {
				mask |= 1 << uint(i)
			}
		}
	}
	if len(bound) == 0 || len(pattern) >= 64 {
		// Unconstrained, or positions beyond the mask width, which
		// cannot be indexed distinctly (then the caller's residual
		// check does the work).
		c.SetRows(r.tuples)
		return
	}
	if len(bound) == len(pattern) && r.dedup {
		if t, ok := r.lookup(pattern); ok {
			c.SetOne(t)
		} else {
			c.SetEmpty()
		}
		return
	}
	r.mu.RLock()
	idx := r.indexes[mask]
	r.mu.RUnlock()
	if idx == nil {
		idx = r.obtainIndex(mask, bound)
	}
	c.SetBucket(idx.buckets[hashProj(pattern, idx.positions)], r.tuples)
}

// obtainIndex returns an index able to serve the bound-position mask,
// creating one if needed. If a live index on a subset of the bound
// positions is selective enough (small average bucket), it is aliased
// under the mask instead of building a new index — the caller's residual
// check makes any subset index correct.
func (r *relation) obtainIndex(mask uint64, bound []int) *index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx, ok := r.indexes[mask]; ok {
		return idx
	}
	var best *index
	bestAvg := 0.0
	for _, idx := range r.live {
		if idx.mask&mask != idx.mask {
			continue // not a subset of the bound positions
		}
		keys := len(idx.buckets)
		if keys == 0 {
			keys = 1
		}
		avg := float64(len(r.tuples)) / float64(keys)
		if best == nil || avg < bestAvg {
			best, bestAvg = idx, avg
		}
	}
	if best != nil && bestAvg <= maxReuseBucket {
		r.indexes[mask] = best
		return best
	}
	idx := &index{
		positions: append([]int(nil), bound...),
		mask:      mask,
		buckets:   make(map[uint64][]int32, len(r.tuples)),
	}
	for i, t := range r.tuples {
		ph := hashProj(t, idx.positions)
		idx.buckets[ph] = append(idx.buckets[ph], int32(i))
	}
	r.builds++
	r.live = append(r.live, idx)
	r.indexes[mask] = idx
	return idx
}

// indexBuilds reports how many full index constructions the relation has
// performed (inserts maintain indexes in place and never trigger one).
func (r *relation) indexBuilds() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.builds
}

// clone deep-copies the relation's tuples and dedup table without
// re-hashing: tuple storage is copied through one flat backing array and
// the probe table is copied verbatim. Indexes are rebuilt lazily.
func (r *relation) clone() *relation {
	nr := &relation{arity: r.arity, dedup: r.dedup, indexes: map[uint64]*index{}}
	if n := len(r.tuples); n > 0 {
		flat := make([]int, n*r.arity)
		nr.tuples = make([][]int, n)
		for i, t := range r.tuples {
			row := flat[i*r.arity : i*r.arity+r.arity : i*r.arity+r.arity]
			copy(row, t)
			nr.tuples[i] = row
		}
	}
	if r.slots != nil {
		nr.slots = append(make([]int32, 0, len(r.slots)), r.slots...)
	}
	return nr
}

// Intern returns the ID of the constant, creating it if new.
func (db *DB) Intern(name string) int {
	if id, ok := db.byName[name]; ok {
		return id
	}
	id := len(db.names)
	db.names = append(db.names, name)
	db.byName[name] = id
	return id
}

// ConstName returns the name of an interned constant.
func (db *DB) ConstName(id int) string {
	if id < 0 || id >= len(db.names) {
		return fmt.Sprintf("#%d", id)
	}
	return db.names[id]
}

// NumConsts returns the number of interned constants.
func (db *DB) NumConsts() int { return len(db.names) }

func (db *DB) rel(pred string, arity int) *relation {
	r, ok := db.rels[pred]
	if !ok {
		r = newRelation(arity)
		db.rels[pred] = r
	}
	return r
}

// AddFact inserts a ground fact; reports whether it was new.
func (db *DB) AddFact(pred string, consts ...string) bool {
	tuple := make([]int, len(consts))
	for i, c := range consts {
		tuple[i] = db.Intern(c)
	}
	return db.rel(pred, len(tuple)).insertOwned(tuple)
}

// AddTuple inserts a ground fact of interned constants.
func (db *DB) AddTuple(pred string, tuple []int) bool {
	return db.rel(pred, len(tuple)).insert(tuple)
}

// Has reports whether the fact holds.
func (db *DB) Has(pred string, consts ...string) bool {
	r, ok := db.rels[pred]
	if !ok {
		return false
	}
	tuple := make([]int, len(consts))
	for i, c := range consts {
		id, known := db.byName[c]
		if !known {
			return false
		}
		tuple[i] = id
	}
	return r.has(tuple)
}

// Count returns the number of tuples of pred.
func (db *DB) Count(pred string) int {
	if r, ok := db.rels[pred]; ok {
		return len(r.tuples)
	}
	return 0
}

// NumFacts returns the total number of stored tuples (the |A| of the
// complexity bounds).
func (db *DB) NumFacts() int {
	n := 0
	for _, r := range db.rels {
		n += len(r.tuples)
	}
	return n
}

// IndexBuilds reports how many full probe-index constructions have been
// performed for pred. Because insert maintains live indexes in place,
// this stays constant under insertion once the index exists; tests use it
// to pin down the incremental-maintenance guarantee.
func (db *DB) IndexBuilds(pred string) int {
	if r, ok := db.rels[pred]; ok {
		return r.indexBuilds()
	}
	return 0
}

// Tuples returns the facts of pred as constant-name tuples, sorted.
func (db *DB) Tuples(pred string) [][]string {
	r, ok := db.rels[pred]
	if !ok {
		return nil
	}
	out := make([][]string, 0, len(r.tuples))
	for _, t := range r.tuples {
		names := make([]string, len(t))
		for i, e := range t {
			names[i] = db.ConstName(e)
		}
		out = append(out, names)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

// Preds returns all predicate names with stored tuples, sorted.
func (db *DB) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy sharing no mutable state. Tuple storage and
// the dedup tables are copied directly (no per-tuple re-hashing), so
// cloning is a flat O(|A|) memory copy.
func (db *DB) Clone() *DB {
	c := NewDB()
	c.names = append([]string(nil), db.names...)
	c.byName = make(map[string]int, len(db.byName))
	for n, id := range db.byName {
		c.byName[n] = id
	}
	for p, r := range db.rels {
		c.rels[p] = r.clone()
	}
	return c
}

// FromStructure loads a τ-structure as an extensional database. Every
// domain element is additionally asserted via the unary predicate domPred
// if it is non-empty (so programs can quantify over the domain).
func FromStructure(st *structure.Structure, domPred string) *DB {
	db := NewDB()
	for i := 0; i < st.Size(); i++ {
		id := db.Intern(st.Name(i))
		if domPred != "" {
			db.AddTuple(domPred, []int{id})
		}
	}
	for _, p := range st.Sig().Predicates() {
		for _, tuple := range st.Tuples(p.Name) {
			mapped := make([]int, len(tuple))
			for i, e := range tuple {
				mapped[i] = db.Intern(st.Name(e))
			}
			db.AddTuple(p.Name, mapped)
		}
	}
	return db
}
