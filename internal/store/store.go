// Package store provides the persistence layer behind the incremental
// session's per-function artifacts.
//
// A Store is a flat map from namespaced string keys to opaque byte
// records; a Put for an existing key supersedes the old record (last
// writer wins). The one implementation, DiskStore, keeps each record in
// its own checksummed file, written by rename, so the directory holds
// exactly the live records and a damaged record costs only itself. A
// session without a store keeps its artifacts in memory only.
//
// Implementations are safe for concurrent use.
package store

// NSArtifact is the namespace of encoded per-function build artifacts,
// one record per translation unit keyed "unit-<i>" by the unit's index;
// each record carries the program-shape fingerprint and every artifact its
// AST hash, so a stale record reads as a miss. A Store treats namespaces
// as opaque; they keep record kinds from colliding. A store.log written by
// earlier versions (one append-only log for every record) is ignored: the
// first run on such a directory rebuilds once, and the file stays until
// it is deleted.
const NSArtifact = "artifact"

// Stats is a point-in-time snapshot of a store's counters.
type Stats struct {
	// Hits / Misses count Get outcomes (a corrupt record reads as a miss).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts records written.
	Puts int64 `json:"puts"`
	// CorruptRecords counts records rejected by checksum, framing or key
	// validation on Get.
	CorruptRecords int64 `json:"corruptRecords"`
	// Records is the live record count.
	Records int `json:"records"`
	// DiskBytes is the total size of the live records.
	DiskBytes int64 `json:"diskBytes"`
}

// Store is the persistence interface the session speaks. Implementations
// must be safe for concurrent use.
type Store interface {
	// Get returns the record stored under (ns, key), or ok=false if the
	// key is absent or its record failed validation.
	Get(ns, key string) (val []byte, ok bool, err error)
	// Put stores val under (ns, key), superseding any earlier record.
	Put(ns, key string, val []byte) error
	// Stat reports the store's counters.
	Stat() Stats
	// Close makes the records written durable and releases resources.
	// The store must not be used afterwards.
	Close() error
}
