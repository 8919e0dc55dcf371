package coord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// compactRatio bounds the log's growth: an open that replays more than
// compactRatio log lines per live path rewrites the log to the live set.
const compactRatio = 4

// FileStore is the persistent Store: a MemStore for every query path plus
// an append-only record log on disk. One JSON record per line keeps the
// format recoverable: on open the log is replayed line by line, and a
// torn tail (a crash mid-append) is detected and ignored rather than
// poisoning the store. Put is write-ahead — the record hits the log
// before it becomes visible, so a Put that returned cannot be lost to a
// clean restart.
//
// Replay goes through MemStore.Put, so the freshest record per path wins
// whatever the line order, and Version() after an open counts the log
// lines replayed. When those lines outnumber the live paths more than
// compactRatio to one, the open rewrites the log to one line per path;
// the next open then replays, and counts, only those.
type FileStore struct {
	mem *MemStore

	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	path   string
	closed bool
}

// OpenFileStore opens (creating if absent) the log at path, replays it,
// and compacts it when it has outgrown the live set.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("coord: open store log: %w", err)
	}
	s := &FileStore{mem: NewMemStore(), f: f, path: path}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	// The snapshot's version counts the lines replay loaded; a fresh
	// MemStore cannot fail to Scan.
	if snap, _ := s.mem.Scan(Query{}); snap.Version > compactRatio*uint64(len(snap.Records)) {
		if err := s.compact(snap.Records); err != nil {
			s.f.Close()
			return nil, fmt.Errorf("coord: compact store log: %w", err)
		}
	}
	if _, err := s.f.Seek(0, 2); err != nil {
		s.f.Close()
		return nil, fmt.Errorf("coord: seek store log: %w", err)
	}
	s.w = bufio.NewWriter(s.f)
	return s, nil
}

// replay loads every intact record from the log. A record is committed
// once its newline is on disk: a malformed line or an unterminated tail
// ends the replay (everything after a torn write is untrusted), and the
// file is truncated back to the last good line so the next append starts
// on a record boundary. A line too long to scan is not a torn write —
// valid records may follow it — so it fails the open and leaves the file
// as it was rather than truncating them away.
func (s *FileStore) replay() error {
	sc := bufio.NewScanner(s.f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	sc.Split(func(data []byte, _ bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i+1], nil
		}
		return 0, nil, nil
	})
	var good int64
	for sc.Scan() {
		line := sc.Bytes()
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil || validate(rec) != nil {
			break
		}
		if _, err := s.mem.Put(rec); err != nil {
			return err
		}
		good += int64(len(line))
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("coord: replay store log at byte %d: %w", good, err)
	}
	if err := s.f.Truncate(good); err != nil {
		return fmt.Errorf("coord: truncate torn store log: %w", err)
	}
	return nil
}

// compact replaces the log with one line per live record. The new log is
// written and synced beside the old one with the old one's permissions,
// renamed over it, and the rename made durable with a directory sync, so
// a crash at any point leaves either the old log or the new one.
func (s *FileStore) compact(live []Record) error {
	fi, err := s.f.Stat()
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".compact-*")
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		if !renamed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := tmp.Chmod(fi.Mode().Perm()); err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range live {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		w.Write(append(line, '\n')) // a bufio.Writer error sticks until Flush
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return err
	}
	renamed = true
	s.f.Close()
	s.f = tmp
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SetMetrics attaches metrics to the backing MemStore (log appends count
// as its Puts).
func (s *FileStore) SetMetrics(m StoreMetrics) { s.mem.SetMetrics(m) }

// Put implements Store: append to the log, flush, then make the record
// visible in memory.
func (s *FileStore) Put(rec Record) (uint64, error) {
	if err := validate(rec); err != nil {
		return 0, err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("coord: encode record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if _, err := s.w.Write(append(line, '\n')); err == nil {
		err = s.w.Flush()
	}
	if err != nil {
		return 0, fmt.Errorf("coord: append store log: %w", err)
	}
	// Memory visibility happens under the same lock as the append, so the
	// log's line order matches the order ties on At resolve in.
	return s.mem.Put(rec)
}

// Scan implements Store.
func (s *FileStore) Scan(q Query) (Snapshot, error) { return s.mem.Scan(q) }

// Watch implements Store.
func (s *FileStore) Watch(buffer int) (<-chan Record, func(), error) {
	return s.mem.Watch(buffer)
}

// Version implements Store.
func (s *FileStore) Version() uint64 { return s.mem.Version() }

// Close implements Store: flushes and closes the log, then closes the
// in-memory state.
func (s *FileStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.mu.Unlock()
	if merr := s.mem.Close(); err == nil {
		err = merr
	}
	return err
}
