package results

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// Content-addressed blob storage. An artifact of dedupMinBytes (4 KiB) or
// more is published once under <root>/.posblob/sha256/<aa>/<hash> and
// hardlinked into the experiment tree, so a per-run artifact whose bytes
// repeat across runs is written once; smaller files (scripts, variable
// files, loop-var bindings) never reach the pool. Where that pays is
// publish: it writes the repeats as tar hardlinks. The experiment layout
// stays byte-identical — a hardlink is a regular file to every reader — and
// overwrites stay safe because the store only ever replaces files by
// rename, never in place.
//
// On filesystems without hardlink support the store transparently falls
// back to full writes.

func (s *Store) blobPath(sum [sha256.Size]byte) string {
	hexSum := hex.EncodeToString(sum[:])
	return filepath.Join(s.root, blobDirName, "sha256", hexSum[:2], hexSum)
}

// dedupMinBytes is the smallest artifact worth deduplicating. Below one
// page the blob-pool bookkeeping (link probe, pool link, fan-out directory)
// costs more syscalls than the duplicate write it would save, and the pool
// fills with inodes that reclaim no meaningful space.
const dedupMinBytes = 4096

// intoPool gives blob its first link through link, making the fan-out
// directory on demand. A concurrent writer may have published the same blob
// (EEXIST): either link is the same content. A pool that cannot take the
// link costs only the dedup; the artifact itself lands regardless.
func intoPool(blob string, link func() error) {
	if err := link(); os.IsNotExist(err) && os.MkdirAll(filepath.Dir(blob), 0o755) == nil {
		link()
	}
}

// writeFileDedup stores data at path, deduplicating against the blob pool.
func (s *Store) writeFileDedup(path string, data []byte) error {
	if len(data) < dedupMinBytes {
		return s.writeFileAtomic(path, data, "")
	}
	sum := sha256.Sum256(data)
	blob := s.blobPath(sum)

	// Fast path: the content already exists — link it into place without
	// writing a byte.
	err := s.linkInto(blob, path)
	switch {
	case err == nil:
		dedupHits.Inc()
		dedupBytesSaved.Add(float64(len(data)))
		return nil
	case !os.IsNotExist(err):
		// The blob exists but cannot be linked (EXDEV, EMLINK, EPERM,
		// …): fall back to a plain write.
		return s.writeFileAtomic(path, data, "")
	}
	// Slow path: write the content once, publish it as the blob, then move
	// it into place.
	dedupMisses.Inc()
	return s.writeFileAtomic(path, data, blob)
}

// placeBlob puts data, an artifact of dedupMinBytes or more, as the new file
// rel of a run's staging directory d, at path: a hard link to its blob on a
// hit, else written there and linked into the pool. The staging directory is
// the run's own, so no temp name is needed.
func (s *Store) placeBlob(d dirFile, rel, path string, data []byte) error {
	sum := sha256.Sum256(data)
	blob := s.blobPath(sum)
	err := link(blob, path)
	if err == nil {
		dedupHits.Inc()
		dedupBytesSaved.Add(float64(len(data)))
		return nil
	}
	if cerr := d.create(rel, data, s.durable); cerr != nil {
		os.Remove(path)
		return fmt.Errorf("results: %w", cerr)
	}
	if os.IsNotExist(err) {
		dedupMisses.Inc()
		intoPool(blob, func() error { return link(path, blob) })
	}
	return nil
}

// linkInto atomically places a hardlink to blob at path. The common ingest
// case — path does not exist yet — is a single link syscall; an existing
// file is replaced through a staged name so readers never see a torn file.
func (s *Store) linkInto(blob, path string) error {
	err := link(blob, path)
	if err == nil || !os.IsExist(err) {
		return err
	}
	// Staged under tmpPrefix, so the orphan sweeper reclaims it after a crash.
	staged := filepath.Join(filepath.Dir(path), fmt.Sprintf("%slnk-%d", tmpPrefix, tmpSeq.Add(1)))
	if err := link(blob, staged); err != nil {
		return err
	}
	return s.publish(staged, path)
}

// BlobStats reports the blob pool's size: distinct blobs, their total
// bytes, and how many still have experiment references (hardlink count
// above one).
type BlobStats struct {
	Blobs      int
	Bytes      int64
	Referenced int
}

// BlobStats scans the blob pool.
func (s *Store) BlobStats() (BlobStats, error) {
	var stats BlobStats
	root := filepath.Join(s.root, blobDirName)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		stats.Blobs++
		stats.Bytes += info.Size()
		if nlink, ok := linkCount(info); ok && nlink > 1 {
			stats.Referenced++
		}
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("results: %w", err)
	}
	return stats, nil
}

// GCBlobs removes blobs whose only remaining link is the pool's own — the
// content was deleted from every experiment. Returns the number of blobs
// reclaimed.
func (s *Store) GCBlobs() (int, error) {
	removed := 0
	root := filepath.Join(s.root, blobDirName)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if nlink, ok := linkCount(info); ok && nlink == 1 {
			if os.Remove(path) == nil {
				removed++
			}
		}
		return nil
	})
	if err != nil {
		return removed, fmt.Errorf("results: %w", err)
	}
	return removed, nil
}

// linkCount extracts the hardlink count from a FileInfo where the platform
// exposes it.
func linkCount(info fs.FileInfo) (uint64, bool) {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return uint64(st.Nlink), true
	}
	return 0, false
}
