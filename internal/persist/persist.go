// Package persist serializes trained networks to a compact, versioned
// binary format (little-endian, stdlib only). Checkpointing matters for
// the large-model training the paper targets: multi-day runs need
// restartable state, and the footprint experiments need identical
// weights across baseline and optimized flows.
//
// Format (version 2):
//
//	magic "ηLSTMv2\n" (9 bytes UTF-8) |
//	SHA-256 content digest (32 bytes) of everything after this field |
//	config (7 × int64: input, hidden, layers, seqLen, batch, out, loss) |
//	per layer: 4 gates × (W floats, U floats, B floats) |
//	projection floats | projection bias floats |
//	trailing CRC-32 (IEEE) of everything before it.
//
// The digest is the checkpoint's content identity: two files carrying
// the same config and weights share it bit for bit, which is what the
// fleet's checkpoint hot-swap uses to verify every replica converged on
// the same weights. Version 1 files (no digest field) still load; their
// digest is computed from the payload on the fly, so the identity is
// stable across the version bump.
package persist

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"etalstm/internal/lstm"
	"etalstm/internal/model"
	"etalstm/internal/rng"
	"etalstm/internal/tensor"
)

var (
	// magicPrefix identifies any η-LSTM checkpoint regardless of
	// version; the token between it and the terminating '\n' is the
	// format version, parsed separately so a version mismatch reports
	// got/want instead of a generic bad-magic error.
	magicPrefix = []byte("\xce\xb7LSTM") // "ηLSTM"
	version     = "v2"
	magic       = []byte(string(magicPrefix) + version + "\n")
	magicV1     = []byte(string(magicPrefix) + "v1\n")
)

// payload serializes net's version-independent content — config then
// weights, the bytes both the digest and the parsers operate on.
func payload(net *model.Network) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	cfg := net.Cfg
	header := []int64{
		int64(cfg.InputSize), int64(cfg.Hidden), int64(cfg.Layers),
		int64(cfg.SeqLen), int64(cfg.Batch), int64(cfg.OutSize), int64(cfg.Loss),
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	for _, p := range net.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			if err := tensor.WriteLE(bw, p.W[g].Data); err != nil {
				return nil, err
			}
			if err := tensor.WriteLE(bw, p.U[g].Data); err != nil {
				return nil, err
			}
			if err := tensor.WriteLE(bw, p.B[g]); err != nil {
				return nil, err
			}
		}
	}
	if err := tensor.WriteLE(bw, net.Proj.Data); err != nil {
		return nil, err
	}
	if err := tensor.WriteLE(bw, net.ProjB); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Digest returns the hex SHA-256 content digest of net — the value a
// v2 checkpoint of net would carry in its header.
func Digest(net *model.Network) (string, error) {
	p, err := payload(net)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:]), nil
}

// Save writes net to w in the current (v2) format.
func Save(w io.Writer, net *model.Network) error {
	p, err := payload(net)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(p)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(magic); err != nil {
		return err
	}
	if _, err := mw.Write(sum[:]); err != nil {
		return err
	}
	if _, err := mw.Write(p); err != nil {
		return err
	}
	// Trailing CRC of everything above, written directly (not hashed).
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// verifyRaw checks a checkpoint's framing (length, CRC, magic/version,
// digest) and returns the version-independent payload plus its hex
// digest: v2 verifies the stored digest against the payload, v1
// computes it on the fly.
func verifyRaw(raw []byte) (body []byte, digest string, err error) {
	if len(raw) < len(magic)+4 {
		return nil, "", fmt.Errorf("persist: checkpoint truncated (%d bytes)", len(raw))
	}
	pay, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(pay) != binary.LittleEndian.Uint32(trailer) {
		return nil, "", fmt.Errorf("persist: checksum mismatch (corrupt checkpoint)")
	}
	switch {
	case bytes.HasPrefix(pay, magic): // v2: stored digest, verified
		rest := pay[len(magic):]
		if len(rest) < sha256.Size {
			return nil, "", fmt.Errorf("persist: checkpoint truncated inside the digest header")
		}
		want, body := rest[:sha256.Size], rest[sha256.Size:]
		got := sha256.Sum256(body)
		if !bytes.Equal(want, got[:]) {
			return nil, "", fmt.Errorf("persist: content digest mismatch (header %s, payload %s)",
				hex.EncodeToString(want)[:12], hex.EncodeToString(got[:])[:12])
		}
		return body, hex.EncodeToString(want), nil
	case bytes.HasPrefix(pay, magicV1): // legacy v1: no digest field
		body := pay[len(magicV1):]
		sum := sha256.Sum256(body)
		return body, hex.EncodeToString(sum[:]), nil
	case bytes.HasPrefix(pay, magicPrefix):
		// An η-LSTM checkpoint, but not our version: extract the
		// version token (up to the '\n' terminator) and say exactly
		// what was found versus what this build reads.
		rest := pay[len(magicPrefix):]
		got := rest
		if nl := bytes.IndexByte(rest, '\n'); nl >= 0 && nl <= 16 {
			got = rest[:nl]
		} else if len(got) > 16 {
			got = got[:16]
		}
		return nil, "", fmt.Errorf("persist: checkpoint format version %q, this build reads %q (and legacy \"v1\")", got, version)
	default:
		return nil, "", fmt.Errorf("persist: bad magic (not an η-LSTM checkpoint)")
	}
}

// parsePayload decodes the config+weights section shared by every
// format version.
func parsePayload(body []byte) (*model.Network, error) {
	br := bytes.NewReader(body)
	header := make([]int64, 7)
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("persist: reading header: %w", err)
		}
	}
	cfg := model.Config{
		InputSize: int(header[0]), Hidden: int(header[1]), Layers: int(header[2]),
		SeqLen: int(header[3]), Batch: int(header[4]), OutSize: int(header[5]),
		Loss: model.LossKind(header[6]),
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("persist: invalid checkpoint config: %w", err)
	}

	net, err := model.NewNetwork(cfg, rng.New(0))
	if err != nil {
		return nil, err
	}
	for _, p := range net.Layer {
		for g := lstm.Gate(0); g < lstm.NumGates; g++ {
			if err := readFloats(br, p.W[g].Data); err != nil {
				return nil, err
			}
			if err := readFloats(br, p.U[g].Data); err != nil {
				return nil, err
			}
			if err := readFloats(br, p.B[g]); err != nil {
				return nil, err
			}
		}
	}
	if err := readFloats(br, net.Proj.Data); err != nil {
		return nil, err
	}
	if err := readFloats(br, net.ProjB); err != nil {
		return nil, err
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("persist: %d trailing bytes after weights", br.Len())
	}
	return net, nil
}

// Load reads a network from r, verifying the trailing checksum (and,
// for v2 checkpoints, the content digest).
func Load(r io.Reader) (*model.Network, error) {
	net, _, err := LoadDigest(r)
	return net, err
}

// LoadDigest is Load plus the checkpoint's hex SHA-256 content digest.
func LoadDigest(r io.Reader) (*model.Network, string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, "", fmt.Errorf("persist: reading checkpoint: %w", err)
	}
	body, digest, err := verifyRaw(raw)
	if err != nil {
		return nil, "", err
	}
	net, err := parsePayload(body)
	if err != nil {
		return nil, "", err
	}
	return net, digest, nil
}

// CheckConfig compares a loaded checkpoint's geometry against what the
// caller expects and reports every differing field by name with its
// got/want values — "geometry mismatch" with two %+v dumps makes the
// reader diff seven fields by eye; this does the diff for them.
func CheckConfig(got, want model.Config) error {
	if got == want {
		return nil
	}
	type field struct {
		name      string
		got, want any
	}
	var diffs []string
	for _, f := range []field{
		{"InputSize", got.InputSize, want.InputSize},
		{"Hidden", got.Hidden, want.Hidden},
		{"Layers", got.Layers, want.Layers},
		{"SeqLen", got.SeqLen, want.SeqLen},
		{"Batch", got.Batch, want.Batch},
		{"OutSize", got.OutSize, want.OutSize},
		{"Loss", got.Loss, want.Loss},
	} {
		if f.got != f.want {
			diffs = append(diffs, fmt.Sprintf("%s %v (want %v)", f.name, f.got, f.want))
		}
	}
	return fmt.Errorf("persist: checkpoint config mismatch: %s", strings.Join(diffs, ", "))
}

// readFloats fills fs from little-endian float32 bits, straight into
// its storage on little-endian hosts (tensor.ReadLE).
func readFloats(r io.Reader, fs []float32) error {
	if err := tensor.ReadLE(r, fs); err != nil {
		return fmt.Errorf("persist: reading weights: %w", err)
	}
	return nil
}

// SaveFile writes net to path atomically and durably: the checkpoint
// goes to path+".tmp", which is synced before it is renamed over path,
// and the directory is synced after the rename. A crash at any point
// leaves either the previous checkpoint or the new one at path, never
// a torn file; a stale ".tmp" a crashed writer leaves behind is
// ignored by LoadFile and replaced by the next save.
func SaveFile(path string, net *model.Network) error {
	return writeFileAtomic(path, func(w io.Writer) error { return Save(w, net) })
}

// writeFileAtomic is SaveFile's write protocol around an arbitrary
// writer function: write the temp file, sync, close, rename, sync the
// directory. On a failure before the rename the temp file is removed
// and path is untouched.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes a rename in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: syncing directory %s: %w", dir, err)
	}
	return nil
}

// LoadFile reads a network from path.
func LoadFile(path string) (*model.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// LoadFileDigest reads a network and its content digest from path.
func LoadFileDigest(path string) (*model.Network, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return LoadDigest(f)
}

// DigestFile returns the content digest of the checkpoint at path after
// verifying its framing, without constructing the network — how the
// router learns what digest a checkpoint should land as before rolling
// it across the fleet.
func DigestFile(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	_, digest, err := verifyRaw(raw)
	return digest, err
}
