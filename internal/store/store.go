// Package store is the content-addressed on-disk artifact store shared by
// wcetlab processes: the persistence tier behind internal/pipeline's
// memory → disk → compute caching. Every entry is one artifact — a
// simulation result, a WCET analysis (with its worst-case witness when one
// was computed), a typical-input profile or an allocation solve — addressed
// by
//
//	sha256(kind, program content hash, canonical stage key)
//
// where the program hash covers the full compiled program (ProgramKey) and
// the stage key is the pipeline's canonical placement/configuration string.
// Identical experiments therefore land on identical entries no matter which
// process, benchmark sweep or server shard computes them first.
//
// Every kind is read and written the same way: Load and Save take the
// kind's Codec (SimCodec, WCETCodec, ProfileCodec, AllocCodec, or one a
// caller builds around a kind's Encode*/Decode* pair).
//
// # Layout and durability
//
// Entries live under <dir>/<first two hash hexits>/<hash>.art. Each file is
// a fixed header (magic, format version, artifact kind, payload length,
// SHA-256 of the payload) followed by the payload. Writes go to a
// temporary file in the store root and are renamed into place, so readers
// never observe a partial entry and concurrent writers of the same key
// last-write-win with either file being valid. Loads verify the header and
// checksum; a truncated, corrupt, version-skewed or unknown-kind entry is
// deleted and reported as a miss (the pipeline recomputes and rewrites it).
//
// Store methods are safe for concurrent use by any number of goroutines
// and processes sharing one directory.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wcet"
)

// Process-wide store metrics. Stores are shared across benchmarks and
// server shards, so the series carry no bench label; reads split by
// result, GC removals count corrupt heals and policy evictions alike.
var (
	mReadHit = obs.Default.Counter("wcetlab_store_reads_total",
		"Artifact store reads by result.", "result", "hit")
	mReadMiss = obs.Default.Counter("wcetlab_store_reads_total",
		"Artifact store reads by result.", "result", "miss")
	mReadBytes = obs.Default.Counter("wcetlab_store_read_bytes_total",
		"Bytes read from the artifact store (verified entries).")
	mWrites = obs.Default.Counter("wcetlab_store_writes_total",
		"Artifact store entries written.")
	mWriteBytes = obs.Default.Counter("wcetlab_store_write_bytes_total",
		"Bytes written to the artifact store (header included).")
	mHeals = obs.Default.Counter("wcetlab_store_corrupt_heals_total",
		"Corrupt or mistyped entries deleted on read so the slot heals.")
	mGCRemoved = obs.Default.Counter("wcetlab_store_gc_files_removed_total",
		"Files removed by store GC (expired, evicted, corrupt, stale temporaries).")
	mGCFreed = obs.Default.Counter("wcetlab_store_gc_bytes_freed_total",
		"Bytes freed by store GC.")
)

// Kind tags the artifact type of an entry. It is part of the address and
// of the header, so a key collision across types is impossible and a
// mislabelled file is detected as corruption.
type Kind uint16

const (
	// KindSim is a simulation result (sim.Result scalars).
	KindSim Kind = 1
	// KindWCET is a WCET analysis result, with witness when computed.
	KindWCET Kind = 2
	// KindProfile is a typical-input access profile.
	KindProfile Kind = 3
	// KindAlloc is a scratchpad allocation solve (pipeline.Allocation
	// fields), keyed by the allocator's ConfigKey and the capacity.
	KindAlloc Kind = 4
	// Kind 5 held persisted solver state in earlier builds. It is reserved
	// and never reused: such entries now read as corrupt, so GCPolicy
	// reclaims them.
)

// kinds lists every artifact kind this build reads and writes; an entry of
// any other kind is corrupt.
var kinds = []Kind{KindSim, KindWCET, KindProfile, KindAlloc}

func (k Kind) String() string {
	switch k {
	case KindSim:
		return "sim"
	case KindWCET:
		return "wcet"
	case KindProfile:
		return "profile"
	case KindAlloc:
		return "alloc"
	}
	return fmt.Sprintf("kind(%d)", uint16(k))
}

// ParseKind maps a kind's String() name back to the Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range kinds {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("store: unknown artifact kind %q", s)
}

const (
	magic      = "WCLB"
	version    = 1
	headerSize = 4 + 2 + 2 + 8 + sha256.Size // magic, version, kind, length, checksum
	entryExt   = ".art"
	tmpPrefix  = "tmp-"
)

// Store is a handle on one store directory.
type Store struct {
	dir string
}

// Open creates (if needed) and opens the store directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Writable probes that the store directory still accepts writes by
// creating and removing a zero-byte temp file. A read-only or vanished
// directory surfaces here (e.g. in a readiness check) rather than as
// scattered save errors later.
func (s *Store) Writable() error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+"probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// entryName is the content address: every component of the identity —
// artifact kind, program content hash, canonical stage key — feeds the
// hash, and nothing else does.
func entryName(kind Kind, progKey, stageKey string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00%s\x00%s", kind, progKey, stageKey)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Store) entryPath(name string) string {
	return filepath.Join(s.dir, name[:2], name+entryExt)
}

// read returns the verified payload for a key, or nil on a miss. Corrupt,
// truncated or mistyped entries are removed so the slot heals on rewrite.
func (s *Store) read(kind Kind, progKey, stageKey string) []byte {
	path := s.entryPath(entryName(kind, progKey, stageKey))
	raw, err := os.ReadFile(path)
	if err != nil {
		mReadMiss.Inc()
		return nil
	}
	payload, k, ok := parseEntry(raw)
	if !ok || k != kind {
		os.Remove(path)
		mHeals.Inc()
		mReadMiss.Inc()
		return nil
	}
	mReadHit.Inc()
	mReadBytes.Add(uint64(len(raw)))
	return payload
}

// parseEntry validates a raw entry file and extracts its payload.
func parseEntry(raw []byte) (payload []byte, kind Kind, ok bool) {
	if len(raw) < headerSize {
		return nil, 0, false // truncated header
	}
	if string(raw[:4]) != magic {
		return nil, 0, false
	}
	if binary.LittleEndian.Uint16(raw[4:6]) != version {
		return nil, 0, false
	}
	kind = Kind(binary.LittleEndian.Uint16(raw[6:8]))
	if !slices.Contains(kinds, kind) {
		return nil, 0, false // unknown or retired kind
	}
	n := binary.LittleEndian.Uint64(raw[8:16])
	payload = raw[headerSize:]
	if n != uint64(len(payload)) {
		return nil, 0, false // truncated or over-long payload
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], raw[16:16+sha256.Size]) {
		return nil, 0, false // bit rot
	}
	return payload, kind, true
}

// write atomically installs a payload under its key: the header+payload
// image is written to a temporary file in the store root, synced, and
// renamed into place.
func (s *Store) write(kind Kind, progKey, stageKey string, payload []byte) error {
	path := s.entryPath(entryName(kind, progKey, stageKey))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint16(hdr[4:6], version)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(kind))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[16:], sum[:])

	f, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(hdr); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	mWrites.Inc()
	mWriteBytes.Add(uint64(len(hdr) + len(payload)))
	return nil
}

// Codec is one artifact kind's persisted form: the kind that tags its
// entries and the payload's encoder and decoder.
type Codec[V any] struct {
	Kind   Kind
	Encode func(V) []byte
	Decode func([]byte) (V, error)
}

// The codecs of the four persisted artifact kinds.
var (
	// SimCodec's results have a nil Mem (see EncodeSim).
	SimCodec = Codec[*sim.Result]{KindSim, EncodeSim, DecodeSim}
	// WCETCodec's results carry a witness only if the stored one did.
	WCETCodec    = Codec[*wcet.Result]{KindWCET, EncodeWCET, DecodeWCET}
	ProfileCodec = Codec[*sim.Profile]{KindProfile, EncodeProfile, DecodeProfile}
	AllocCodec   = Codec[*AllocArtifact]{KindAlloc, EncodeAlloc, DecodeAlloc}
)

// Load returns the artifact stored under (program, stage key) in the
// codec's kind and true, or false on a miss. An entry that fails to decode
// is a miss.
func Load[V any](s *Store, c Codec[V], progKey, stageKey string) (V, bool) {
	payload := s.read(c.Kind, progKey, stageKey)
	if payload == nil {
		var zero V
		return zero, false
	}
	v, err := c.Decode(payload)
	return v, err == nil
}

// Save stores an artifact under (program, stage key) in the codec's kind.
func Save[V any](s *Store, c Codec[V], progKey, stageKey string, v V) error {
	return s.write(c.Kind, progKey, stageKey, c.Encode(v))
}

// DropKinds removes every (non-corrupt) entry of the given kinds, returning
// the number of files removed and bytes freed. Used to evict one artifact
// tier — e.g. dropping analyses and allocations while keeping simulations
// and profiles warm.
func (s *Store) DropKinds(kinds ...Kind) (removed int, freed int64, err error) {
	want := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	entries, err := s.Index()
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if e.Corrupt || !want[e.Kind] {
			continue
		}
		if os.Remove(s.entryPath(e.Name)) == nil {
			removed++
			freed += e.Size
		}
	}
	mGCRemoved.Add(uint64(removed))
	mGCFreed.Add(uint64(freed))
	return removed, freed, nil
}

// Entry describes one stored artifact in an Index listing.
type Entry struct {
	// Name is the content address (the filename without extension).
	Name string
	// Kind is the artifact type from the entry header (0 if corrupt).
	Kind Kind
	// Size is the file size in bytes, header included.
	Size int64
	// ModTime is the entry file's modification time (its write time).
	ModTime time.Time
	// Corrupt marks an entry whose header or checksum failed validation.
	Corrupt bool
}

// Index lists every entry in the store, sorted by name. Corrupt entries
// are listed (flagged), not silently skipped, so GCPolicy can remove
// them.
func (s *Store) Index() ([]Entry, error) {
	var entries []Entry
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, entryExt) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		e := Entry{
			Name:    strings.TrimSuffix(filepath.Base(path), entryExt),
			Size:    info.Size(),
			ModTime: info.ModTime(),
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, kind, ok := parseEntry(raw); ok {
			e.Kind = kind
		} else {
			e.Corrupt = true
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: index: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, nil
}

// Usage reports the entry count and total size in bytes from directory
// metadata alone — unlike Index it neither reads nor checksums entry
// payloads, so it is cheap enough for a stats endpoint polled under load.
func (s *Store) Usage() (entries int, bytes int64, err error) {
	walkErr := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, entryExt) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		entries++
		bytes += info.Size()
		return nil
	})
	if walkErr != nil {
		return 0, 0, fmt.Errorf("store: usage: %w", walkErr)
	}
	return entries, bytes, nil
}

// Policy is a GC retention policy: entries older than MaxAge are removed
// (0 keeps every age), and if the store still exceeds MaxBytes the oldest
// surviving entries are removed until it fits (0 means unbounded). Corrupt
// entries and stale temporaries are always removed.
type Policy struct {
	MaxAge   time.Duration
	MaxBytes int64
}

// GCPolicy applies a retention policy and returns the number of files
// removed and the bytes they occupied. The age cutoff is evaluated against
// now; the size pass evicts oldest-first (ties broken by name, so
// concurrent GCs converge on the same survivors).
func (s *Store) GCPolicy(now time.Time, pol Policy) (removed int, freed int64, err error) {
	var cutoff time.Time
	if pol.MaxAge > 0 {
		cutoff = now.Add(-pol.MaxAge)
	}
	entries, err := s.Index()
	if err != nil {
		return 0, 0, err
	}
	var live []Entry
	var liveBytes int64
	for _, e := range entries {
		if e.Corrupt || (pol.MaxAge > 0 && e.ModTime.Before(cutoff)) {
			if os.Remove(s.entryPath(e.Name)) == nil {
				removed++
				freed += e.Size
			}
			continue
		}
		live = append(live, e)
		liveBytes += e.Size
	}
	if pol.MaxBytes > 0 && liveBytes > pol.MaxBytes {
		sort.Slice(live, func(i, j int) bool {
			if !live[i].ModTime.Equal(live[j].ModTime) {
				return live[i].ModTime.Before(live[j].ModTime)
			}
			return live[i].Name < live[j].Name
		})
		for _, e := range live {
			if liveBytes <= pol.MaxBytes {
				break
			}
			if os.Remove(s.entryPath(e.Name)) == nil {
				removed++
				freed += e.Size
				liveBytes -= e.Size
			}
		}
	}
	// Stale temporaries (crashed writers) go regardless of policy, with
	// their bytes accounted like any other removal. Staleness is judged
	// against the caller's clock, like the age cutoff above.
	walkErr := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(filepath.Base(path), tmpPrefix) {
			return err
		}
		info, err := d.Info()
		if err == nil && now.Sub(info.ModTime()) > time.Minute && os.Remove(path) == nil {
			removed++
			freed += info.Size()
		}
		return nil
	})
	mGCRemoved.Add(uint64(removed))
	mGCFreed.Add(uint64(freed))
	return removed, freed, walkErr
}
