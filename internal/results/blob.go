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

// Content-addressed blob storage. Every artifact's content is published
// once under <root>/.posblob/sha256/<aa>/<hash> and hardlinked into the
// experiment tree, so a 60-run cross product that records the same script,
// variable file, or loop-var binding in every run writes the bytes exactly
// once. The experiment layout stays byte-identical — a hardlink is a
// regular file to every reader — and overwrites stay safe because the store
// only ever replaces files by rename, never in place.
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

// writeFileDedup stores data at path, deduplicating against the blob pool.
func (s *Store) writeFileDedup(path string, data []byte) error {
	if len(data) < dedupMinBytes {
		return s.writeFileAtomic(path, data)
	}
	sum := sha256.Sum256(data)
	blob := s.blobPath(sum)

	// Fast path: the content already exists — link it into place without
	// writing a byte.
	if err := s.linkInto(blob, path); err == nil {
		dedupHits.Inc()
		dedupBytesSaved.Add(float64(len(data)))
		return nil
	} else if !os.IsNotExist(err) {
		// The blob exists but cannot be linked (EXDEV, EMLINK, EPERM,
		// …): fall back to a plain write.
		return s.writeFileAtomic(path, data)
	}

	// Slow path: write the content once, publish it as the blob, then
	// move it into place. The blob gains its first link from the temp
	// file, so the data hits the disk exactly once.
	dedupMisses.Inc()
	tmp, err := createTmp(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("results: %w", err)
	}
	if s.durable {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return fmt.Errorf("results: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("results: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(blob), 0o755); err == nil {
		// A concurrent writer may have published the same blob; either
		// link is the same content, so EEXIST is success.
		if err := os.Link(tmpName, blob); err != nil && !os.IsExist(err) {
			// Link unsupported: the artifact itself still lands below.
		}
	}
	return s.publish(tmpName, path)
}

// linkInto atomically places a hardlink to blob at path. The common ingest
// case — path does not exist yet — is a single link syscall; an existing
// file is replaced through a staged name so readers never see a torn file.
func (s *Store) linkInto(blob, path string) error {
	err := os.Link(blob, path)
	if err == nil || !os.IsExist(err) {
		return err
	}
	// Staged under tmpPrefix, so the orphan sweeper reclaims it after a crash.
	staged := filepath.Join(filepath.Dir(path), fmt.Sprintf("%slnk-%d", tmpPrefix, tmpSeq.Add(1)))
	if err := os.Link(blob, staged); err != nil {
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
// content was pruned from every experiment. Returns the number of blobs
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
