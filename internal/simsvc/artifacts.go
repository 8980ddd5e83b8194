package simsvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/obs/trace"
	"repro/internal/simpoint"
)

// Artifact tiers. The expensive per-workload artifacts — functional-
// warmup checkpoints (kind "ckpt") and SimPoint sampling plans (kind
// "plan") — are built once and shared by every cell that needs them,
// through one generic lookup: memory → disk → peer → build, under
// singleflight. A kind supplies only its name, its gob codec and, per
// call, a validity check against the caller's build inputs.
//
// Disk. Artifacts are content-addressed exactly like results: each is
// stored at <cache>.ckpts/<artifactName(key)>.<kind>, a hash of the
// same key the in-memory tier uses, so a schema bump or a kernel edit
// changes the file name and stale files are simply never read again.
//
// Peers. With Config.PeerArtifacts on, a node serves its store over
// GET /artifacts/{kind}/{hash} and, on a local memory+disk miss,
// consults the fabric (same rendezvous ranking, breakers and hedging as
// result lookups, via LookupPath) before building. So a stolen or
// resumed cell never re-warms or re-profiles what a peer already has.
// The wire format mirrors the result entries' integrity rule: an
// envelope carrying the hash, a checksum over (hash, gob bytes), and
// the gob payload.
//
// Trust. A disk file or peer body is decoded and then validated against
// the build inputs (warmup budget, window, sampling config); any failure
// is a miss and the artifact is built locally. A corrupt, stale or
// colliding artifact costs a build, never a wrong simulation.
// Persistence is best-effort: a failed save is an event, not an error.

// ckptDirSuffix names the artifact directory next to the result cache:
// CachePath + ckptDirSuffix.
const ckptDirSuffix = ".ckpts"

// artifactStore is the on-disk half of the artifact tiers, shared by
// both kinds. dir "" disables it.
type artifactStore struct {
	dir string
	inj *faults.Injector
}

func newArtifactStore(cachePath string, inj *faults.Injector) *artifactStore {
	st := &artifactStore{inj: inj}
	if cachePath != "" {
		st.dir = cachePath + ckptDirSuffix
	}
	return st
}

func (st *artifactStore) enabled() bool { return st.dir != "" }

// artifactName maps an artifact key to its content-addressed file base
// name. Keys carry workload names and schema strings; hashing keeps the
// name short, safe and stable — and URL-safe, so the same name addresses
// the artifact in the cluster's GET /artifacts/{kind}/{hash} endpoints.
func artifactName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// path maps an artifact kind and key to its file.
func (st *artifactStore) path(kind, key string) string {
	return filepath.Join(st.dir, artifactName(key)+"."+kind)
}

// read returns the raw gob bytes of a stored artifact by kind and file
// base name, for serving to cluster peers. Only the kinds "ckpt" and
// "plan" and exactly 32 lowercase hex digits (what artifactName emits)
// are accepted, so a hostile path segment can never escape the store
// directory.
func (st *artifactStore) read(kind, hash string) ([]byte, bool) {
	if !st.enabled() || st.inj.LoadErr() != nil {
		return nil, false
	}
	if (kind != "ckpt" && kind != "plan") || !isArtifactHash(hash) {
		return nil, false
	}
	b, err := os.ReadFile(filepath.Join(st.dir, hash+"."+kind))
	if err != nil {
		return nil, false
	}
	return b, true
}

// isArtifactHash reports whether h has artifactName's exact form.
func isArtifactHash(h string) bool {
	if len(h) != 32 {
		return false
	}
	for i := 0; i < len(h); i++ {
		if c := h[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// planFile is the serialized (gob) form of one sampling plan: the plan
// itself, its representative checkpoints, and the inputs it was built
// from — validated on load so a stale or colliding file is rebuilt
// rather than trusted. It is the plan tier's artifact type.
type planFile struct {
	Warmup, Window uint64
	Cfg            simpoint.Config
	Plan           *simpoint.Plan
	Checkpoints    []*arch.Checkpoint
}

func encodePlan(pf *planFile, w io.Writer) error { return gob.NewEncoder(w).Encode(pf) }

func decodePlan(r io.Reader) (*planFile, error) {
	var pf planFile
	if err := gob.NewDecoder(r).Decode(&pf); err != nil {
		return nil, err
	}
	return &pf, nil
}

// artifactTier is the lookup for one artifact kind; T is the decoded
// artifact.
type artifactTier[T any] struct {
	kind   string // file extension, /artifacts/{kind} segment, event prefix
	encode func(T, io.Writer) error
	decode func(io.Reader) (T, error)
	svc    *Service // store, peering, events and the peer-lookup histogram

	mu      sync.Mutex
	flights map[string]*artifactFlight[T]

	built     atomic.Uint64 // artifacts built locally
	hits      atomic.Uint64 // calls answered by an existing entry
	diskHits  atomic.Uint64 // memory misses answered from disk
	peerHits  atomic.Uint64 // memory+disk misses answered by a cluster peer
	persisted atomic.Uint64 // artifacts written to the disk store
}

// artifactFlight is one tier entry: the first caller loads or builds it
// while later callers block on done.
type artifactFlight[T any] struct {
	done chan struct{}
	v    T
	err  error
}

func newArtifactTier[T any](s *Service, kind string, encode func(T, io.Writer) error, decode func(io.Reader) (T, error)) *artifactTier[T] {
	return &artifactTier[T]{kind: kind, encode: encode, decode: decode, svc: s,
		flights: make(map[string]*artifactFlight[T])}
}

// get returns the artifact for key: from memory, else from disk, else
// from a cluster peer, else built — under singleflight, so concurrent
// callers for one key block until the single load or build finishes.
// valid vets a disk or peer artifact against the caller's build inputs.
// A peer-fetched or built artifact is persisted best-effort. A failed or
// panicking build fails this call and every caller blocked on it; the
// entry is dropped so a later call rebuilds.
func (t *artifactTier[T]) get(parent *trace.Span, key string, valid func(T) bool, build func() (T, error)) (T, error) {
	t.mu.Lock()
	if f, ok := t.flights[key]; ok {
		t.mu.Unlock()
		<-f.done
		if f.err == nil {
			t.hits.Add(1)
		}
		return f.v, f.err
	}
	f := &artifactFlight[T]{done: make(chan struct{})}
	t.flights[key] = f
	t.mu.Unlock()
	fresh := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("simsvc: %s build panicked (%s): %v", t.kind, key, r)
				t.svc.event(t.kind+"-panic", fmt.Sprintf("%s: %v", key, r))
			}
			close(f.done)
		}()
		var ok bool
		if f.v, ok = t.load(key, valid); ok {
			t.diskHits.Add(1)
			return
		}
		if f.v, ok = t.peer(parent, key, valid); ok {
			fresh = true
			return
		}
		if f.v, f.err = build(); f.err == nil {
			t.built.Add(1)
			fresh = true
		}
	}()
	if f.err != nil {
		t.mu.Lock()
		delete(t.flights, key)
		t.mu.Unlock()
		return f.v, f.err
	}
	if fresh {
		t.persist(key, f.v)
	}
	return f.v, nil
}

// load reads and vets key's file. Any failure — store off, missing
// file, decode error, invalid artifact — is a miss.
func (t *artifactTier[T]) load(key string, valid func(T) bool) (T, bool) {
	var zero T
	st := t.svc.store
	if !st.enabled() || st.inj.LoadErr() != nil {
		return zero, false
	}
	f, err := os.Open(st.path(t.kind, key))
	if err != nil {
		return zero, false
	}
	defer f.Close()
	v, err := t.decode(f)
	if err != nil || !valid(v) {
		return zero, false
	}
	return v, true
}

// peer consults the fabric for key under a ckpt-peer-lookup span. Any
// failure — peering off, no peer holds it, corrupt body, invalid
// artifact — is a miss.
func (t *artifactTier[T]) peer(parent *trace.Span, key string, valid func(T) bool) (T, bool) {
	var v T
	s := t.svc
	if !s.cfg.PeerArtifacts || s.fab == nil {
		return v, false
	}
	hash := artifactName(key)
	sp := parent.Child(trace.PhaseCkptPeer)
	sp.Set("kind", t.kind)
	start := time.Now()
	body, peerURL, ok := s.fab.LookupPath(s.ctx, hash, "/artifacts/"+t.kind+"/"+hash, validateArtifact)
	s.peerDur.Observe(time.Since(start).Seconds())
	if ok {
		ok = false
		if data, err := decodeArtifact(hash, body); err == nil {
			if d, err := t.decode(bytes.NewReader(data)); err == nil && valid(d) {
				v, ok = d, true
			}
		}
	}
	sp.Set("hit", strconv.FormatBool(ok))
	if ok {
		sp.Set("peer", peerURL)
	}
	sp.Finish()
	if ok {
		t.peerHits.Add(1)
		s.event(t.kind+"-peer-hit", fmt.Sprintf("%s from %s", key, peerURL))
	}
	return v, ok
}

// persist writes v to key's file atomically, so the next restart (and
// this node's peers) have it. Best-effort: a failure is an event.
func (t *artifactTier[T]) persist(key string, v T) {
	st := t.svc.store
	if !st.enabled() {
		return
	}
	err := st.inj.SaveErr()
	if err == nil {
		err = os.MkdirAll(st.dir, 0o755)
	}
	if err == nil {
		err = writeFileAtomic(st.path(t.kind, key), "."+t.kind+"-*",
			func(w io.Writer) error { return t.encode(v, w) })
	}
	if err != nil {
		t.svc.event(t.kind+"-persist-failed", fmt.Sprintf("simsvc: save %s: %v", t.kind, err))
		return
	}
	t.persisted.Add(1)
}

// artifactEntry is the wire form of one peered artifact.
type artifactEntry struct {
	// Hash is artifactName(key): the content address both sides use.
	Hash string `json:"hash"`
	// Sum is entrySum over (Hash, Data), verified on receipt.
	Sum string `json:"sum"`
	// Data is the raw gob encoding, as stored on disk.
	Data []byte `json:"data"`
}

// encodeArtifact wraps raw gob bytes for the wire.
func encodeArtifact(hash string, data []byte) ([]byte, error) {
	return json.Marshal(artifactEntry{Hash: hash, Sum: entrySum(hash, data), Data: data})
}

// decodeArtifact parses and checksums a peer artifact body.
func decodeArtifact(hash string, body []byte) ([]byte, error) {
	var e artifactEntry
	if err := json.Unmarshal(body, &e); err != nil {
		return nil, fmt.Errorf("simsvc: peer artifact: %w", err)
	}
	if e.Hash != hash {
		return nil, fmt.Errorf("simsvc: peer artifact hash mismatch (got %q)", e.Hash)
	}
	if entrySum(hash, e.Data) != e.Sum {
		return nil, fmt.Errorf("simsvc: peer artifact checksum mismatch")
	}
	return e.Data, nil
}

// validateArtifact is the fabric LookupPath validator for hash: a body
// that fails it counts as a peer failure, not a hit.
func validateArtifact(hash string, body []byte) error {
	_, err := decodeArtifact(hash, body)
	return err
}
