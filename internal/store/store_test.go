package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openStore opens a DiskStore in dir, failing the test on error.
func openStore(t *testing.T, dir string) *DiskStore {
	t.Helper()
	s, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dirBytes sums the sizes of every file in dir, record or not.
func dirBytes(t *testing.T, dir string) (files int, total int64) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		files++
		total += fi.Size()
	}
	return files, total
}

func TestDiskStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if _, ok, err := s.Get(NSArtifact, "key-00"); err != nil || ok {
		t.Fatalf("empty Get = ok=%v err=%v", ok, err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := bytes.Repeat([]byte{byte(i)}, 100+i)
		vals[k] = v
		if err := s.Put(NSArtifact, k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede one; an empty value is a record too.
	vals["key-03"] = []byte("replaced")
	vals["key-04"] = []byte{}
	for _, k := range []string{"key-03", "key-04"} {
		if err := s.Put(NSArtifact, k, vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	// Namespaces do not collide.
	if _, ok, _ := s.Get("aux", "key-00"); ok {
		t.Fatal("namespace collision")
	}
	if st := s.Stat(); st.Records != 20 || st.Puts != 22 {
		t.Fatalf("stats = %+v", st)
	}
	for k, want := range vals {
		got, ok, err := s.Get(NSArtifact, k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(NSArtifact, "key-00"); err == nil {
		t.Fatal("Get after Close succeeded")
	}

	// Reopen: every record reads back with last-writer-wins.
	s2 := openStore(t, dir)
	defer s2.Close()
	if st := s2.Stat(); st.Records != 20 || st.CorruptRecords != 0 {
		t.Fatalf("reopen stats = %+v", st)
	}
	for k, want := range vals {
		got, ok, err := s2.Get(NSArtifact, k)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopen Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, want)
		}
	}
}

// Record files are named by the hex of namespace and key, so namespaces
// built from project IDs such as "." and ".." stay inside the directory.
func TestDiskStoreKeysStayInDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	s := openStore(t, dir)
	defer s.Close()
	for _, project := range []string{".", "..", "a/../.."} {
		if err := Namespaced(s, project).Put(NSArtifact, "../k", []byte(project)); err != nil {
			t.Fatal(err)
		}
	}
	for _, project := range []string{".", "..", "a/../.."} {
		if v, ok, _ := Namespaced(s, project).Get(NSArtifact, "../k"); !ok || string(v) != project {
			t.Fatalf("project %q read %q ok=%v", project, v, ok)
		}
	}
	if files, _ := dirBytes(t, dir); files != 3 {
		t.Fatalf("store directory holds %d files, want 3", files)
	}
	if files, _ := dirBytes(t, root); files != 1 {
		t.Fatalf("a record escaped the store directory: %d entries beside it", files)
	}
}

// A Put renames over the key's file, so superseded records take no space:
// 400 Puts cycling over 17 keys, as a serving session's segment ring
// does, leave the directory within 1.1x of the live bytes.
func TestDiskStoreSupersededReclaimed(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	live := map[string]int{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("!delta-%02d", i%17)
		v := bytes.Repeat([]byte{byte(i)}, 2000+(i*7919)%50000)
		if err := s.Put(NSArtifact, k, v); err != nil {
			t.Fatal(err)
		}
		live[k] = len(NSArtifact) + len(k) + len(v)
	}
	var liveBytes int64
	for _, n := range live {
		liveBytes += int64(n)
	}
	files, total := dirBytes(t, dir)
	if files != 17 || float64(total) > 1.1*float64(liveBytes) {
		t.Fatalf("directory holds %d files, %d bytes; want 17 files within 1.1x of %d live bytes", files, total, liveBytes)
	}
	if st := s.Stat(); st.Records != 17 || st.DiskBytes != total {
		t.Fatalf("stats = %+v, want 17 records of %d bytes", st, total)
	}
}

func TestDiskStoreTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Put(NSArtifact, "a", []byte("intact record")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSArtifact, "b", []byte("this one gets torn")); err != nil {
		t.Fatal(err)
	}
	path := s.path(NSArtifact, "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the record mid-payload, as a crash during its write would.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	if v, ok, _ := s2.Get(NSArtifact, "a"); !ok || string(v) != "intact record" {
		t.Fatalf("intact record lost: %q ok=%v", v, ok)
	}
	if _, ok, _ := s2.Get(NSArtifact, "b"); ok {
		t.Fatal("torn record served")
	}
	if st := s2.Stat(); st.CorruptRecords != 1 || st.Records != 1 {
		t.Fatalf("stats after torn record = %+v", st)
	}
	// The torn key accepts a new record, which survives a reopen.
	if err := s2.Put(NSArtifact, "b", []byte("after recovery")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir)
	defer s3.Close()
	if v, ok, _ := s3.Get(NSArtifact, "b"); !ok || string(v) != "after recovery" {
		t.Fatalf("post-recovery put lost: %q ok=%v", v, ok)
	}
}

// flipValueBit flips one bit inside the first occurrence of val in path.
func flipValueBit(t *testing.T, path string, val []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, val)
	if i < 0 {
		t.Fatal("value not found in record file")
	}
	data[i+len(val)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	a, b := bytes.Repeat([]byte("x"), 64), bytes.Repeat([]byte("y"), 64)
	if err := s.Put(NSArtifact, "a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(NSArtifact, "b", b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipValueBit(t, s.path(NSArtifact, "a"), a)

	// The flip invalidates a's checksum: detected, never served.
	s2 := openStore(t, dir)
	defer s2.Close()
	if v, ok, _ := s2.Get(NSArtifact, "a"); ok {
		t.Fatalf("corrupt record served: %q", v)
	}
	if st := s2.Stat(); st.CorruptRecords != 1 || st.Records != 1 {
		t.Fatalf("bit flip not detected: %+v", st)
	}
	if v, ok, _ := s2.Get(NSArtifact, "b"); !ok || !bytes.Equal(v, b) {
		t.Fatalf("record after the flipped one lost: %q ok=%v", v, ok)
	}
}

// One flipped bit costs exactly its own record: every other record,
// including other projects' records, is still served.
func TestDiskStoreCorruptionIsolated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	vals := map[string][]byte{}
	for i := 0; i < 17; i++ {
		project := []string{DefaultProject, "alpha", "beta"}[i%3]
		k := fmt.Sprintf("%s/k%02d", project, i)
		vals[k] = bytes.Repeat([]byte{'a' + byte(i)}, 200)
		if err := Namespaced(s, project).Put(NSArtifact, fmt.Sprintf("k%02d", i), vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	const victim = "alpha/k07"
	flipValueBit(t, s.path("alpha/"+NSArtifact, "k07"), vals[victim])

	s2 := openStore(t, dir)
	defer s2.Close()
	for i := 0; i < 17; i++ {
		project := []string{DefaultProject, "alpha", "beta"}[i%3]
		k := fmt.Sprintf("%s/k%02d", project, i)
		v, ok, err := Namespaced(s2, project).Get(NSArtifact, fmt.Sprintf("k%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if k == victim {
			if ok {
				t.Fatalf("flipped record %s served: %q", k, v)
			}
			continue
		}
		if !ok || !bytes.Equal(v, vals[k]) {
			t.Fatalf("record %s lost to another record's corruption: %q ok=%v", k, v, ok)
		}
	}
	if st := s2.Stat(); st.CorruptRecords != 1 || st.Misses != 1 || st.Hits != 16 || st.Records != 16 {
		t.Fatalf("stats = %+v, want 1 corrupt miss, 16 hits, 16 records left", st)
	}
}

func TestDiskStoreGetTimeCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	z := bytes.Repeat([]byte("z"), 64)
	if err := s.Put(NSArtifact, "a", z); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record behind the open store's back.
	flipValueBit(t, s.path(NSArtifact, "a"), z)

	if _, ok, err := s.Get(NSArtifact, "a"); err != nil || ok {
		t.Fatalf("corrupt read-time Get = ok=%v err=%v, want miss", ok, err)
	}
	st := s.Stat()
	if st.CorruptRecords != 1 || st.Records != 0 {
		t.Fatalf("stats after read-time corruption = %+v", st)
	}
	// The corrupt record was dropped: the next Get is a plain miss.
	if _, ok, _ := s.Get(NSArtifact, "a"); ok {
		t.Fatal("dropped record served")
	}
	if st := s.Stat(); st.CorruptRecords != 1 || st.Misses != 2 {
		t.Fatalf("stats after second Get = %+v", st)
	}
}

func TestDiskStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%10)
				v := bytes.Repeat([]byte{byte(g)}, 64+i)
				if err := s.Put(NSArtifact, k, v); err != nil {
					done <- err
					return
				}
				// Keys are per goroutine, so the read returns exactly what
				// this goroutine wrote.
				if got, ok, err := s.Get(NSArtifact, k); err != nil || !ok || !bytes.Equal(got, v) {
					done <- fmt.Errorf("Get(%s) = %d bytes ok=%v err=%v", k, len(got), ok, err)
					return
				}
				// Every goroutine rewrites one shared key, racing the
				// others' renames: a read sees one whole record.
				if err := s.Put("shared", "k", v); err != nil {
					done <- err
					return
				}
				if got, ok, err := s.Get("shared", "k"); err != nil || !ok || len(got) < 64 || !bytes.Equal(got, bytes.Repeat(got[:1], len(got))) {
					done <- fmt.Errorf("shared Get = %d bytes ok=%v err=%v", len(got), ok, err)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stat(); st.Records != 81 || st.CorruptRecords != 0 || st.Puts != 800 {
		t.Fatalf("stats = %+v, want 81 records, no corruption", st)
	}
	if files, _ := dirBytes(t, dir); files != 81 {
		t.Fatalf("store directory holds %d files, want 81 records and no temp files", files)
	}
}

// FuzzDecodeRecord feeds arbitrary record-file bytes to the decoder,
// seeded with a valid record, a truncated one and an empty one. Bytes the
// decoder accepts must be exactly the record Put would write for the
// value it returns: a miss or the value that was put, never a panic. Run
// it with
//
//	go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 10s ./internal/store
func FuzzDecodeRecord(f *testing.F) {
	valid := encodeRecord(NSArtifact, "!full", []byte("segment bytes"))
	f.Add("!full", valid)
	f.Add("!full", valid[:len(valid)-3])
	f.Add("!full", []byte{})
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		val, err := decodeRecord(data, NSArtifact, key)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeRecord(NSArtifact, key, val), data) {
			t.Fatalf("accepted %d bytes that do not re-encode to themselves (value %q)", len(data), val)
		}
	})
}
