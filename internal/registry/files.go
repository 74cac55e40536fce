package registry

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// files is the file store under both kinds of artifact, datasets
// (Registry) and ANN indexes (IndexStore): a content-addressed directory
// of <id><ext> files with refcounted pins, file removal deferred to the
// last release, and LRU reclaim under a disk budget. Each kind embeds one
// and supplies its IDs, its metadata view, its header check and its
// decode. mu guards the store and the kind's own state alike; *Locked
// methods expect it held.
type files[E fileEntry, I any] struct {
	mu sync.Mutex

	dir, ext string            // dir "" keeps entries in memory only, without files
	budget   int64             // disk bytes; 0 = unbounded
	now      func() time.Time  // nil = time.Now
	validID  func(string) bool // the file stems the kind mints
	notFound error
	info     func(E) I // the kind's metadata view of an entry
	drop     func(E)   // releases a hidden entry's kind state; may be nil

	entries                    map[string]E // live entries only
	bytes                      int64        // size summed over live entries with a file
	reclaims, corrupt, deletes int64
}

// file is the store's record of one entry; each kind's entry type embeds
// it. Fields are guarded by mu.
type file struct {
	id                string
	size              int64 // bytes of the file, accounted while onDisk
	refs              int   // outstanding pins
	deleted, onDisk   bool  // deleted: hidden, the file goes at the last release
	created, lastUsed time.Time
}

func (f *file) rec() *file { return f }

// fileEntry is a kind's entry type: a pointer to a struct embedding file.
type fileEntry interface{ rec() *file }

// open creates the directory if needed and registers every <id><ext> file
// with a stem the kind mints that passes check, which reads only the
// header. A file that fails is removed and counted as corrupt. Temp files
// of an interrupted write are removed; any other file is left alone.
func (s *files[E, I]) open(check func(id string, r io.Reader, size int64) (E, error)) error {
	s.entries = make(map[string]E)
	if s.now == nil {
		s.now = time.Now
	}
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	now := s.now()
	for _, de := range dirents {
		id, ok := strings.CutSuffix(de.Name(), s.ext)
		switch {
		case de.IsDir(): // svserver keeps its index store in a subdirectory
		case ok && s.validID(id):
			f, size, err := s.openFile(id)
			if err != nil {
				continue
			}
			e, err := check(id, f, size)
			f.Close()
			if err != nil {
				os.Remove(f.Name())
				s.corrupt++
				continue
			}
			rec := e.rec()
			rec.id, rec.size, rec.onDisk, rec.created, rec.lastUsed = id, size, true, now, now
			s.entries[id] = e
			s.bytes += size
		case s.isTemp(de.Name()):
			os.Remove(filepath.Join(s.dir, de.Name()))
		}
	}
	return nil
}

// isTemp reports whether name is "<id>.tmp<digits>", a writeTemp file.
func (s *files[E, I]) isTemp(name string) bool {
	i := strings.LastIndex(name, ".tmp")
	if i < 0 || !s.validID(name[:i]) {
		return false
	}
	digits := name[i+len(".tmp"):]
	return digits != "" && strings.Trim(digits, "0123456789") == ""
}

func (s *files[E, I]) path(id string) string { return filepath.Join(s.dir, id+s.ext) }

// openFile opens id's file for reading and returns it with its size.
func (s *files[E, I]) openFile(id string) (*os.File, int64, error) {
	f, err := os.Open(s.path(id))
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, st.Size(), nil
}

// load runs decode over the file of e, which the caller has pinned, outside
// mu. The corruption rule: bytes that fail decode, or a file gone missing,
// drop e and remove the file, so its ID reads as not found until the next
// write. Any failure releases the pin.
func (s *files[E, I]) load(e E, decode func(r io.Reader, size int64) error) error {
	f, size, err := s.openFile(e.rec().id)
	corrupt := errors.Is(err, fs.ErrNotExist)
	if err == nil {
		err = decode(f, size)
		f.Close()
		corrupt = err != nil
	}
	if corrupt {
		s.mu.Lock()
		if !e.rec().deleted {
			s.removeLocked(e)
		}
		s.corrupt++
		s.mu.Unlock()
	}
	if err != nil {
		s.release(e)
	}
	return err
}

// writeTemp runs encode into a fresh temp file beside id's path, outside
// mu (uploads and indexes may be large), and returns its path for
// installLocked or discard ("" in a memory-only store).
func (s *files[E, I]) writeTemp(id string, encode func(io.Writer) error) (string, error) {
	if s.dir == "" {
		return "", nil
	}
	tmp, err := os.CreateTemp(s.dir, id+".tmp*")
	if err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	if err := encode(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("registry: write %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("registry: %w", err)
	}
	return tmp.Name(), nil
}

// discard removes a temp file that will not be installed.
func (s *files[E, I]) discard(tmp string) {
	if tmp != "" {
		os.Remove(tmp)
	}
}

// installLocked renames tmp (if any) onto e's path, makes e (new, or live
// and its file replaced) the live entry of its ID with size bytes, and
// reclaims down to the budget, keeping e so a write always lands. Renaming
// only under mu means a deferred removal can never clobber a file a racing
// write just installed: the new entry is in the table first.
func (s *files[E, I]) installLocked(e E, tmp string, size int64) error {
	f := e.rec()
	if tmp != "" {
		if err := os.Rename(tmp, s.path(f.id)); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("registry: %w", err)
		}
	}
	if f.onDisk {
		s.bytes -= f.size
	}
	f.size, f.onDisk, f.lastUsed = size, tmp != "", s.now()
	if f.created.IsZero() {
		f.created = f.lastUsed
	}
	if f.onDisk {
		s.bytes += size
	}
	s.entries[f.id] = e
	s.reclaimLocked(f)
	return nil
}

// reclaimLocked enforces the disk budget by removing whole entries, least
// recently used first, skipping pinned ones, ones without a file and keep.
func (s *files[E, I]) reclaimLocked(keep *file) {
	if s.budget <= 0 || s.bytes <= s.budget {
		return
	}
	cands := make([]E, 0, len(s.entries))
	for _, e := range s.entries {
		if f := e.rec(); f.refs == 0 && f.onDisk && f != keep {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].rec().lastUsed.Before(cands[j].rec().lastUsed) })
	for _, e := range cands {
		if s.bytes <= s.budget {
			return
		}
		s.removeLocked(e)
		s.reclaims++
	}
}

// getLocked returns the live entry under id, or notFound.
func (s *files[E, I]) getLocked(id string) (E, error) {
	e, ok := s.entries[id]
	if !ok {
		return e, fmt.Errorf("%w: %s", s.notFound, id)
	}
	return e, nil
}

// pinLocked takes a ref on e, deferring removal of its file, and touches
// it for reclaim order.
func (s *files[E, I]) pinLocked(e E) {
	f := e.rec()
	f.refs++
	f.lastUsed = s.now()
}

// release drops a ref; the last release of a hidden entry removes its file.
func (s *files[E, I]) release(e E) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := e.rec()
	f.refs--
	if f.deleted && f.refs == 0 {
		s.removeFileLocked(f)
	}
}

// Stat returns the metadata of one stored entry.
func (s *files[E, I]) Stat(id string) (info I, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.getLocked(id)
	if err == nil {
		info = s.info(e)
	}
	return info, err
}

// List returns the metadata of every stored entry, ordered by ID.
func (s *files[E, I]) List() []I {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := slices.Sorted(maps.Keys(s.entries))
	out := make([]I, len(ids))
	for i, id := range ids {
		out[i] = s.info(s.entries[id])
	}
	return out
}

// Delete hides id from Get, Stat and List at once; its file goes when the
// last outstanding handle is released, so running work keeps its data.
func (s *files[E, I]) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.getLocked(id)
	if err != nil {
		return err
	}
	s.removeLocked(e)
	s.deletes++
	return nil
}

// removeLocked hides the live entry e and releases its bytes and kind
// state; its file goes now or at the last release.
func (s *files[E, I]) removeLocked(e E) {
	f := e.rec()
	f.deleted = true
	delete(s.entries, f.id)
	if f.onDisk {
		s.bytes -= f.size
	}
	if s.drop != nil {
		s.drop(e)
	}
	if f.refs == 0 {
		s.removeFileLocked(f)
	}
}

// removeFileLocked deletes f's file unless its ID has been re-registered
// since (the new entry owns the path now).
func (s *files[E, I]) removeFileLocked(f *file) {
	if !f.onDisk {
		return
	}
	f.onDisk = false
	if cur, ok := s.entries[f.id]; ok && cur.rec() != f {
		return
	}
	os.Remove(s.path(f.id))
}
