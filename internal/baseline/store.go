package baseline

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the pluggable persistence interface for baseline entries.
// Names are unique; so are fingerprints (one baseline per measured
// configuration) — Put evicts any prior entry sharing either key.
type Store interface {
	// Put stores e, replacing any entry with the same Name or the same
	// Fingerprint.
	Put(e Entry) error
	// Get returns the entry registered under name.
	Get(name string) (Entry, bool, error)
	// Delete removes the entry registered under name, reporting
	// whether it existed.
	Delete(name string) (bool, error)
	// List returns all entries sorted by name.
	List() ([]Entry, error)
}

// MemStore is the in-memory Store used when no -data-dir is
// configured: same semantics as DirStore, no durability.
type MemStore struct {
	mu     sync.Mutex
	byName map[string]Entry
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{byName: make(map[string]Entry)}
}

func (s *MemStore) Put(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, old := range s.byName {
		if name != e.Name && old.Fingerprint == e.Fingerprint {
			delete(s.byName, name)
		}
	}
	s.byName[e.Name] = e
	return nil
}

func (s *MemStore) Get(name string) (Entry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byName[name]
	return e, ok, nil
}

func (s *MemStore) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byName[name]
	delete(s.byName, name)
	return ok, nil
}

func (s *MemStore) List() ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedEntries(s.byName), nil
}

// DirStore persists one JSON file per entry under a directory — the
// system's first durable state. Files are named by fingerprint
// (`<fingerprint>.json`): the canonical config digest is the primary
// key, so re-recording the same configuration under any name
// overwrites one file, and a directory listing maps one-to-one onto
// measured configurations. Writes are atomic (temp file + rename) so
// a crash mid-Put never leaves a torn entry for the next Open to
// trip over.
type DirStore struct {
	dir    string
	mu     sync.Mutex
	byName map[string]Entry
}

// OpenDirStore loads (creating if needed) the baseline directory.
// Unreadable or corrupt entry files are skipped with an error list the
// caller may log — one bad file must not take down the store.
func OpenDirStore(dir string) (*DirStore, []error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("baseline: create store dir: %w", err)
	}
	s := &DirStore{dir: dir, byName: make(map[string]Entry)}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: scan store dir: %w", err)
	}
	var warns []error
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			warns = append(warns, fmt.Errorf("read %s: %w", filepath.Base(path), err))
			continue
		}
		var e Entry
		if err := json.Unmarshal(data, &e); err != nil {
			warns = append(warns, fmt.Errorf("decode %s: %w", filepath.Base(path), err))
			continue
		}
		if err := e.Validate(); err != nil {
			warns = append(warns, fmt.Errorf("validate %s: %w", filepath.Base(path), err))
			continue
		}
		if old, ok := s.byName[e.Name]; ok {
			// Duplicate name across files (hand-edited store); keep
			// the lexically later file, flag the clash.
			warns = append(warns, fmt.Errorf("%s: name %q already loaded from %s.json; keeping %s",
				filepath.Base(path), e.Name, old.Fingerprint, filepath.Base(path)))
		}
		s.byName[e.Name] = e
	}
	return s, warns, nil
}

func (s *DirStore) path(fingerprint string) string {
	// Fingerprints are hex digests, but sanitize defensively: the name
	// must stay inside the store directory.
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, fingerprint)
	return filepath.Join(s.dir, safe+".json")
}

func (s *DirStore) Put(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("baseline: encode %q: %w", e.Name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("baseline: stage %q: %w", e.Name, err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("baseline: stage %q: %w", e.Name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("baseline: stage %q: %w", e.Name, err)
	}
	if err := os.Rename(tmp.Name(), s.path(e.Fingerprint)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("baseline: commit %q: %w", e.Name, err)
	}
	// Evict stale files: a rename under the same name to a new
	// fingerprint leaves the old fingerprint's file behind; another
	// name claiming this fingerprint loses its index slot (its file
	// was just overwritten).
	if old, ok := s.byName[e.Name]; ok && old.Fingerprint != e.Fingerprint {
		os.Remove(s.path(old.Fingerprint))
	}
	for name, old := range s.byName {
		if name != e.Name && old.Fingerprint == e.Fingerprint {
			delete(s.byName, name)
		}
	}
	s.byName[e.Name] = e
	return nil
}

func (s *DirStore) Get(name string) (Entry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byName[name]
	return e, ok, nil
}

func (s *DirStore) Delete(name string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byName[name]
	if !ok {
		return false, nil
	}
	if err := os.Remove(s.path(e.Fingerprint)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false, fmt.Errorf("baseline: delete %q: %w", name, err)
	}
	delete(s.byName, name)
	return true, nil
}

func (s *DirStore) List() ([]Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedEntries(s.byName), nil
}

func sortedEntries(m map[string]Entry) []Entry {
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
