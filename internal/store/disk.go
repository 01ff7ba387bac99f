package store

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Record files. Every record is one file in the store directory, named by
// the hex encoding of ns+"\x00"+key plus ".rec", so no namespace or key
// (tenant IDs may be "." or "..") can name a path outside the directory.
// The file holds a magic and one checksummed record:
//
//	magic  : "PPREC\x00\x00\x01"
//	record : u32 nsLen | u32 keyLen | u32 valLen | ns | key | val | u32 crc
//
// All integers are little-endian; crc is crc32.ChecksumIEEE(ns|key|val).
// Put writes a temp file in the directory and renames it over the record's
// name, so a reader sees the old record or the new one, and the rename
// reclaims the superseded record: the directory holds one file per live
// key. Put does not fsync; Close fsyncs the files written since Open and
// the directory.
//
// Crash safety: a record torn by a crash before Close, or damaged later,
// fails its framing, key or CRC check on Get. The file is removed,
// counted in Stats.CorruptRecords, and the Get reads as a miss; no other
// record is affected. Dropped records are re-derived by the analysis —
// corruption can cost warmth, never correctness.
var recMagic = [8]byte{'P', 'P', 'R', 'E', 'C', 0, 0, 1}

const (
	recExt       = ".rec"
	recHeaderLen = len(recMagic) + 12 // magic and three u32 lengths
)

// DiskOptions configures a DiskStore.
type DiskOptions struct {
	// Obs, when non-nil, receives store.* counters and gauges.
	Obs *obs.Recorder
}

// DiskStore is the persistent Store: one checksummed file per record.
type DiskStore struct {
	dir string
	rec *obs.Recorder

	mu      sync.Mutex
	written map[string]bool // record paths written since Open, for Close's fsync
	stats   Stats
	closed  bool
}

// Open opens (creating if needed) the disk store rooted at dir. Nothing is
// read at open; temp files a crash left behind mid-Put are removed.
func Open(dir string, opts DiskOptions) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Glob fails only on a malformed pattern; a temp file that cannot be
	// removed is dead space, never read.
	tmps, _ := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	for _, p := range tmps {
		os.Remove(p)
	}
	return &DiskStore{dir: dir, rec: opts.Obs, written: make(map[string]bool)}, nil
}

func (s *DiskStore) path(ns, key string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(ns+"\x00"+key))+recExt)
}

// encodeRecord frames val under (ns, key) as a record file's bytes.
func encodeRecord(ns, key string, val []byte) []byte {
	payload := len(ns) + len(key) + len(val)
	out := make([]byte, recHeaderLen, recHeaderLen+payload+4)
	copy(out, recMagic[:])
	binary.LittleEndian.PutUint32(out[8:], uint32(len(ns)))
	binary.LittleEndian.PutUint32(out[12:], uint32(len(key)))
	binary.LittleEndian.PutUint32(out[16:], uint32(len(val)))
	out = append(out, ns...)
	out = append(out, key...)
	out = append(out, val...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out[recHeaderLen:]))
}

// decodeRecord validates a record file's bytes against (ns, key) and
// returns its value. The lengths must frame the file exactly.
func decodeRecord(data []byte, ns, key string) ([]byte, error) {
	if len(data) < recHeaderLen+4 || [8]byte(data[:8]) != recMagic {
		return nil, errors.New("store: bad record header")
	}
	nsLen := uint64(binary.LittleEndian.Uint32(data[8:]))
	keyLen := uint64(binary.LittleEndian.Uint32(data[12:]))
	valLen := uint64(binary.LittleEndian.Uint32(data[16:]))
	if nsLen != uint64(len(ns)) || keyLen != uint64(len(key)) ||
		uint64(recHeaderLen)+nsLen+keyLen+valLen+4 != uint64(len(data)) {
		return nil, errors.New("store: record framing mismatch")
	}
	body := data[recHeaderLen : len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, errors.New("store: record checksum mismatch")
	}
	if string(body[:nsLen]) != ns || string(body[nsLen:nsLen+keyLen]) != key {
		return nil, errors.New("store: record key mismatch")
	}
	return body[nsLen+keyLen:], nil
}

// Get implements Store. A record failing validation is removed and
// reported as a miss, so callers fall back to rebuilding — corrupted
// state can never produce wrong output.
func (s *DiskStore) Get(ns, key string) ([]byte, bool, error) {
	if s.isClosed() {
		return nil, false, errors.New("store: closed")
	}
	path := s.path(ns, key)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		s.tally(&s.stats.Misses, "store.misses")
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	val, err := decodeRecord(data, ns, key)
	if err == nil {
		s.tally(&s.stats.Hits, "store.hits")
		return val, true, nil
	}
	s.mu.Lock()
	// Remove the file only if no Put renamed a new record over it since
	// it was opened. A file that cannot be removed reads as corrupt again.
	if cur, err := os.Stat(path); err == nil && os.SameFile(fi, cur) {
		os.Remove(path)
	}
	s.stats.CorruptRecords++
	s.stats.Misses++
	s.mu.Unlock()
	s.count("store.corrupt_records")
	s.count("store.misses")
	return nil, false, nil
}

// Put implements Store: the record is written to a temp file and renamed
// over (ns, key)'s file, replacing any earlier record for the key.
func (s *DiskStore) Put(ns, key string, val []byte) error {
	if s.isClosed() {
		return errors.New("store: closed")
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(encodeRecord(ns, key, val))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	path := s.path(ns, key)
	s.mu.Lock()
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		s.written[path] = true
		s.stats.Puts++
	}
	s.mu.Unlock()
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put: %w", err)
	}
	s.count("store.puts")
	return nil
}

// Stat implements Store. Records and DiskBytes come from a listing of the
// directory's record files (zero if it cannot be read), and are published
// as the store.records and store.disk_bytes gauges.
func (s *DiskStore) Stat() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	entries, _ := os.ReadDir(s.dir)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), recExt) {
			continue
		}
		if fi, err := e.Info(); err == nil {
			st.Records++
			st.DiskBytes += fi.Size()
		}
	}
	if s.rec != nil {
		s.rec.Gauge("store.records").Set(int64(st.Records))
		s.rec.Gauge("store.disk_bytes").Set(st.DiskBytes)
	}
	return st
}

// Close implements Store: fsyncs the record files written since Open and
// the directory, so every acknowledged Put survives a crash after Close.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for path := range s.written {
		if err := syncPath(path); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	if err := syncPath(s.dir); err != nil && first == nil {
		first = err
	}
	return first
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *DiskStore) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// tally increments a Stats counter and its store.* counter.
func (s *DiskStore) tally(field *int64, name string) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
	s.count(name)
}

func (s *DiskStore) count(name string) {
	if s.rec != nil {
		s.rec.Counter(name).Inc()
	}
}
