package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hotg/internal/search"
)

// CheckpointFormatVersion stamps the on-disk checkpoint envelope. The
// envelope version covers the file framing (integrity hash, pointer file);
// the snapshot payload carries its own search.SnapshotFormatVersion, checked
// by search.Snapshot.Validate. Loaders reject newer envelope versions.
const CheckpointFormatVersion = 1

// checkpointEnvelope frames a snapshot on disk with an integrity hash, so a
// torn or bit-rotted checkpoint is detected at load rather than resumed from.
// SaveCheckpoint writes the same fields by appending (see there); loads
// decode it.
type checkpointEnvelope struct {
	FormatVersion int             `json:"format_version"`
	Runs          int             `json:"runs"`
	Sum           string          `json:"sha256"` // hex sha256 of the Snapshot bytes
	Snapshot      json.RawMessage `json:"snapshot"`
}

// latestPointer names the most recent complete checkpoint. It is written
// atomically after the checkpoint file itself, so the pointer never names a
// partial file.
type latestPointer struct {
	File string `json:"file"`
}

func (c *Campaign) latestPath() string { return filepath.Join(c.checkpointsDir(), "latest.json") }

// SaveCheckpoint persists a snapshot as checkpoints/ckpt-<runs>.json and
// repoints latest.json at it. Intended as the search's Checkpoint.Sink.
func (c *Campaign) SaveCheckpoint(s *search.Snapshot) error {
	// Frame the envelope by appending, not by marshalling a checkpointEnvelope:
	// the snapshot is encoded straight into the file's buffer after a
	// placeholder for its hash, which is filled in once the payload is there.
	// The bytes are the same as that Marshal's.
	data := c.ckptBuf[:0]
	if want := len(c.ckptBuf) + len(c.ckptBuf)/4; cap(data) < want {
		// Snapshots grow: leave room for this one and the next few rather
		// than copying a full buffer as it overflows.
		data = make([]byte, 0, want+want/4)
	}
	data = fmt.Appendf(data, `{"format_version":%d,"runs":%d,"sha256":"`, CheckpointFormatVersion, s.Runs)
	sumAt := len(data)
	data = append(data, make([]byte, hex.EncodedLen(sha256.Size))...)
	data = append(data, `","snapshot":`...)
	start := len(data)
	data, err := s.AppendJSON(data)
	if err != nil {
		return fmt.Errorf("campaign: encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(data[start:])
	hex.Encode(data[sumAt:], sum[:])
	data = append(data, "}\n"...)
	c.ckptBuf = data
	name := fmt.Sprintf("ckpt-%09d.json", s.Runs)
	if err := WriteFileAtomic(filepath.Join(c.checkpointsDir(), name), data, 0o644); err != nil {
		return err
	}
	ptr, err := json.Marshal(latestPointer{File: name})
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint pointer: %w", err)
	}
	if err := WriteFileAtomic(c.latestPath(), append(ptr, '\n'), 0o644); err != nil {
		return err
	}
	c.obs.Counter("campaign.checkpoints.saved").Add(1)
	c.obs.Gauge("campaign.checkpoints.latest_runs").Set(int64(s.Runs))
	return nil
}

// LatestCheckpoint loads the most recent checkpoint, verifying the envelope
// version and integrity hash. It returns (nil, nil) when the campaign has no
// checkpoint yet.
func (c *Campaign) LatestCheckpoint() (*search.Snapshot, error) {
	raw, err := os.ReadFile(c.latestPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ptr latestPointer
	if err := json.Unmarshal(raw, &ptr); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint pointer %s: %w", c.latestPath(), err)
	}
	if ptr.File != filepath.Base(ptr.File) || ptr.File == "" {
		return nil, fmt.Errorf("campaign: checkpoint pointer %s: invalid file name %q", c.latestPath(), ptr.File)
	}
	return c.loadCheckpoint(filepath.Join(c.checkpointsDir(), ptr.File))
}

func (c *Campaign) loadCheckpoint(path string) (*search.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	if env.FormatVersion != CheckpointFormatVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s: format version %d, this build reads %d",
			path, env.FormatVersion, CheckpointFormatVersion)
	}
	// The payload is hashed as written. Only when that misses is it hashed
	// again compacted, so a checkpoint that was pretty-printed by an external
	// tool (whitespace-only change) still verifies without every load paying
	// for a second scan.
	if !sumMatches(env.Snapshot, env.Sum) {
		var compact bytes.Buffer
		if err := json.Compact(&compact, env.Snapshot); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
		}
		if !sumMatches(compact.Bytes(), env.Sum) {
			return nil, fmt.Errorf("campaign: checkpoint %s: integrity hash mismatch", path)
		}
	}
	var snap search.Snapshot
	if err := json.Unmarshal(env.Snapshot, &snap); err != nil {
		// A snapshot from another format version fails to decode where the
		// encodings differ; report the version, not the field that tripped.
		// (One that decodes is rejected by Validate's version check.)
		var v struct {
			FormatVersion int `json:"format_version"`
		}
		if json.Unmarshal(env.Snapshot, &v) == nil && v.FormatVersion != search.SnapshotFormatVersion {
			return nil, fmt.Errorf("campaign: checkpoint %s: snapshot has format version %d; this build reads version %d",
				path, v.FormatVersion, search.SnapshotFormatVersion)
		}
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	return &snap, nil
}

// sumMatches reports whether data hashes to the hex sha256 want.
func sumMatches(data []byte, want string) bool {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]) == want
}
