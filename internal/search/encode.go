package search

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"slices"
	"strconv"
	"strings"

	"hotg/internal/fol"
)

// A campaign checkpoints every few dozen runs, and each snapshot holds almost
// everything the previous one held: the queued items, the proof cache and the
// dedup sets only grow or shift. This file makes a checkpoint cost what
// changed since the last one, with bytes identical to encoding/json's:
//
//   - a queued item and a cache entry are encoded once, by encoding/json, the
//     first time a snapshot holds them, and the fragment is reused by every
//     later snapshot (item.ckpt, proofCache.records);
//   - the dedup sets and the cache keep their snapshot order, and merge in
//     only the keys added since (dedupSet.merge, mergeSorted); the dedup
//     sets also keep their front coding, recomputed only next to new keys;
//   - Snapshot.AppendJSON frames the top-level object by hand around those
//     fragments, and writes the packed key sets straight into the output.
//
// Tracking starts at a session's first snapshot, so a search without a
// checkpoint sink does none of this work. A snapshot decoded from disk has no
// fragments; the same encoder computes them on demand.

// MarshalJSON implements json.Marshaler by way of AppendJSON.
func (snap *Snapshot) MarshalJSON() ([]byte, error) { return snap.AppendJSON(nil) }

// AppendJSON appends the snapshot's JSON encoding to dst. The bytes are the
// ones encoding/json's reflection writes for the same fields: the object is
// framed field by field, in declaration order and under the same omitempty
// rules, and every nested value is a fragment encoding/json produced, either
// when the search first checkpointed the record or here, on demand.
func (snap *Snapshot) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"format_version":`...)
	dst = strconv.AppendInt(dst, int64(snap.FormatVersion), 10)
	dst = append(dst, `,"mode":`...)
	dst, err := appendMarshal(dst, snap.Mode)
	if err != nil {
		return nil, err
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{{"branches", snap.Branches}, {"inputs", snap.Inputs}, {"max_runs", snap.MaxRuns}, {"runs", snap.Runs}} {
		dst = appendName(dst, f.name)
		dst = strconv.AppendInt(dst, int64(f.v), 10)
	}
	if dst, err = appendMarshal(appendName(dst, "stats"), &snap.Stats); err != nil {
		return nil, err
	}
	if len(snap.Samples) > 0 {
		if dst, err = appendMarshal(appendName(dst, "samples"), snap.Samples); err != nil {
			return nil, err
		}
	}
	itemEnc := func(r *itemRec) []byte { return r.enc }
	if dst, err = appendRecs(dst, "hot", snap.Hot, itemEnc); err != nil {
		return nil, err
	}
	if dst, err = appendRecs(dst, "cold", snap.Cold, itemEnc); err != nil {
		return nil, err
	}
	dst = appendKeySet(dst, "tried", snap.Tried, snap.triedShared)
	dst = appendKeySet(dst, "targeted", snap.Targeted, snap.targetedShared)
	if dst, err = appendRecs(dst, "prove", snap.Prove, func(r *proveRec) []byte { return r.enc }); err != nil {
		return nil, err
	}
	if dst, err = appendRecs(dst, "solve", snap.Solve, func(r *solveRec) []byte { return r.enc }); err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendName appends the separator and key that open a field after the first.
func appendName(dst []byte, name string) []byte {
	dst = append(dst, ",\""...)
	dst = append(dst, name...)
	return append(dst, "\":"...)
}

func appendMarshal(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// appendRecs appends a non-empty record array as a field, taking each
// element's memoized encoding where enc returns one.
func appendRecs[T any](dst []byte, name string, recs []T, enc func(*T) []byte) ([]byte, error) {
	if len(recs) == 0 {
		return dst, nil
	}
	dst = append(appendName(dst, name), '[')
	for i := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if b := enc(&recs[i]); b != nil {
			dst = append(dst, b...)
			continue
		}
		var err error
		if dst, err = appendMarshal(dst, &recs[i]); err != nil {
			return nil, err
		}
	}
	return append(dst, ']'), nil
}

// appendKeySet appends a non-empty key set as a field, front-coded with
// shared if it is not nil (keySet.appendText). Base64 needs no JSON escaping,
// so the text goes straight into dst.
func appendKeySet(dst []byte, name string, ks keySet, shared []int) []byte {
	if len(ks) == 0 {
		return dst
	}
	dst = append(appendName(dst, name), '"')
	return append(ks.appendText(dst, shared), '"')
}

// packer streams a packed form (uvarints and raw bytes) into dst as base64.
// Whole 3-byte groups encode independently, so it flushes them as its buffer
// fills and never holds the complete packed value.
type packer struct {
	dst []byte
	n   int
	buf [1024]byte
}

// room flushes the buffer's whole 3-byte groups unless k more bytes fit.
func (p *packer) room(k int) {
	if p.n+k <= len(p.buf) {
		return
	}
	whole := p.n - p.n%3
	p.dst = base64.StdEncoding.AppendEncode(p.dst, p.buf[:whole])
	p.n = copy(p.buf[:], p.buf[whole:p.n])
}

func (p *packer) uvarint(v uint64) {
	p.room(binary.MaxVarintLen64)
	p.n += binary.PutUvarint(p.buf[p.n:], v)
}

func (p *packer) bytes(s string) {
	for len(s) > 0 {
		p.room(1)
		c := copy(p.buf[p.n:], s)
		p.n += c
		s = s[c:]
	}
}

// finish encodes the rest, padded, and returns dst.
func (p *packer) finish() []byte {
	return base64.StdEncoding.AppendEncode(p.dst, p.buf[:p.n])
}

// dedupSet is a set of dedup keys. Once a snapshot has read it, it also
// keeps its keys in increasing order for the next one: sorted holds every
// key as of the last snapshot and fresh the keys added since. shared[i] is
// the number of bytes sorted[i] shares with sorted[i-1], the front coding a
// snapshot writes (keySet); a merge recomputes it only next to the keys it
// inserts.
type dedupSet struct {
	m      map[string]bool
	track  bool
	sorted keySet
	shared []int
	fresh  []string
}

func (d *dedupSet) has(k string) bool { return d.m[k] }

// insert adds k, reporting whether it was new. Only a new key is copied to
// a string.
func (d *dedupSet) insert(k []byte) bool {
	if d.m[string(k)] {
		return false
	}
	d.add(string(k))
	return true
}

// add inserts k.
func (d *dedupSet) add(k string) {
	if d.m == nil {
		d.m = make(map[string]bool)
	}
	n := len(d.m)
	d.m[k] = true
	if d.track && len(d.m) > n {
		d.fresh = append(d.fresh, k)
	}
}

// reset replaces the set's contents with keys.
func (d *dedupSet) reset(keys []string) {
	*d = dedupSet{m: make(map[string]bool, len(keys))}
	for _, k := range keys {
		d.m[k] = true
	}
}

// keys returns the set in increasing order. The first call starts tracking
// and sorts every key; later calls merge in only the keys added since.
func (d *dedupSet) keys() keySet {
	if !d.track {
		d.track = true
		d.fresh = make([]string, 0, len(d.m))
		for k := range d.m {
			d.fresh = append(d.fresh, k)
		}
	}
	if len(d.fresh) > 0 {
		d.merge()
	}
	return d.sorted
}

// frontCoded returns keys() and each key's shared-prefix length with its
// predecessor.
func (d *dedupSet) frontCoded() (keySet, []int) {
	ks := d.keys() // before reading d.shared, which it updates
	return ks, d.shared
}

// merge sorts the fresh keys into new sorted and shared slices: the old ones
// may belong to an earlier snapshot and are left as they are. An old key
// keeps its prefix length unless an inserted key now precedes it.
func (d *dedupSet) merge() {
	add := d.fresh
	slices.Sort(add)
	old, oldShared := d.sorted, d.shared
	out := make(keySet, len(old)+len(add))
	shared := make([]int, len(out))
	i, j := 0, 0
	afterOld := false // out[k-1] is old[i-1]
	for k := range out {
		switch {
		case j < len(add) && (i == len(old) || add[j] < old[i]):
			out[k] = add[j]
			j, afterOld = j+1, false
		case afterOld:
			out[k], shared[k] = old[i], oldShared[i]
			i++
			continue
		default:
			out[k] = old[i]
			i, afterOld = i+1, true
		}
		if k > 0 {
			shared[k] = sharedPrefix(out[k-1], out[k])
		}
	}
	d.sorted, d.shared, d.fresh = out, shared, add[:0]
}

// mergeSorted sorts add and merges it into old, a sorted run sharing no
// element with add, returning a new slice: old may belong to an earlier
// snapshot and is left as it is.
func mergeSorted[T any](old, add []T, cmp func(a, b T) int) []T {
	slices.SortFunc(add, cmp)
	out := make([]T, 0, len(old)+len(add))
	for len(old) > 0 && len(add) > 0 {
		if cmp(old[0], add[0]) < 0 {
			out, old = append(out, old[0]), old[1:]
		} else {
			out, add = append(out, add[0]), add[1:]
		}
	}
	return append(append(out, old...), add...)
}

// record returns the item's checkpoint record, building and encoding it the
// first time a snapshot holds the item.
func (it *item) record() (*itemRec, error) {
	if it.ckpt == nil {
		rec, err := encodeItem(*it)
		if err != nil {
			return nil, err
		}
		if rec.enc, err = json.Marshal(rec); err != nil {
			return nil, err
		}
		it.ckpt = &rec
	}
	return it.ckpt, nil
}

// queueRecs returns the records of a work queue, in order.
func queueRecs(q []item) ([]itemRec, error) {
	if len(q) == 0 {
		return nil, nil
	}
	out := make([]itemRec, len(q))
	for i := range q {
		rec, err := q[i].record()
		if err != nil {
			return nil, err
		}
		out[i] = *rec
	}
	return out, nil
}

// records returns the cache as snapshot records, each list sorted by key.
// Entries stored since the last call are encoded and merged in; older ones
// keep their records, which is sound because an entry is never replaced. The
// first call starts tracking and takes every entry as new.
func (c *proofCache) records() ([]proveRec, []solveRec, error) {
	if !c.track {
		c.track = true
		for k := range c.prove {
			c.newProve = append(c.newProve, k)
		}
		for f := range c.solve {
			c.newSolve = append(c.newSolve, f)
		}
	}
	if len(c.newProve) > 0 {
		add := make([]proveRec, len(c.newProve))
		for i, k := range c.newProve {
			e := c.prove[k]
			strat, err := fol.EncodeStrategy(e.strategy)
			if err != nil {
				return nil, nil, err
			}
			add[i] = proveRec{Key: k.String(), Outcome: e.outcome.String(), Strategy: strat}
			if add[i].enc, err = json.Marshal(add[i]); err != nil {
				return nil, nil, err
			}
		}
		c.proveRecs = mergeSorted(c.proveRecs, add, func(a, b proveRec) int { return strings.Compare(a.Key, b.Key) })
		c.newProve = c.newProve[:0]
	}
	if len(c.newSolve) > 0 {
		add := make([]solveRec, len(c.newSolve))
		for i, f := range c.newSolve {
			e := c.solve[f]
			add[i] = solveRec{Key: f, Status: e.status.String(), Model: e.model}
			var err error
			if add[i].enc, err = json.Marshal(add[i]); err != nil {
				return nil, nil, err
			}
		}
		c.solveRecs = mergeSorted(c.solveRecs, add, func(a, b solveRec) int { return strings.Compare(a.Key, b.Key) })
		c.newSolve = c.newSolve[:0]
	}
	return c.proveRecs, c.solveRecs, nil
}
