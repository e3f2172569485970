package nn

import (
	"compress/flate"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"

	"capes/internal/tensor"
)

// newZeroRand returns a deterministic RNG for models whose weights are
// about to be overwritten (checkpoint load, Clone).
func newZeroRand() *rand.Rand { return rand.New(rand.NewSource(0)) }

// Checkpointing. The CAPES artifact "automatically checkpoints and stores
// the trained model when being stopped, and loads the saved model when
// being started next time" (§A.4). We serialize the MLP topology and
// parameters with encoding/gob behind flate compression.
//
// The format is precision-tagged: version 2 records whether the arena
// was float32 or float64 and stores it natively (a float32 model costs
// half the bytes on disk). Load[E] restores into any precision —
// same-precision round trips are bit-exact, float32→float64 widening is
// exact, and float64→float32 rounds each parameter once (the standard
// narrowing restore for resuming an old float64 session on the float32
// engine). Version-1 checkpoints (per-tensor float64 slices, no tag)
// remain readable.

// checkpointFile is the on-disk gob structure.
type checkpointFile struct {
	Magic      string
	Version    int
	Sizes      []int
	Activation int
	Precision  string      // v2: "float32" or "float64"
	Flat64     []float64   // v2: the flat parameter arena at float64
	Flat32     []float32   // v2: the flat parameter arena at float32
	Weights    [][]float64 // v1 layout, aligned with Params(); read-only
}

const (
	checkpointMagic   = "CAPES-DNN"
	checkpointVersion = 2
)

// precisionName returns the checkpoint tag for the element type.
func precisionName[E tensor.Element]() string {
	if tensor.ElemSize[E]() == 4 {
		return "float32"
	}
	return "float64"
}

// flateWriters recycles compressors across checkpoint saves: a
// flate.Writer is ~300 KiB of window state, worth keeping off the GC on
// the periodic-checkpoint path.
var flateWriters sync.Pool

func getFlateWriter(w io.Writer) *flate.Writer {
	if v := flateWriters.Get(); v != nil {
		fw := v.(*flate.Writer)
		fw.Reset(w)
		return fw
	}
	fw, _ := flate.NewWriter(w, flate.BestSpeed) // only errors on bad level
	return fw
}

// Save writes the model parameters to w, tagged with the model's
// precision. The flat arena is handed to the encoder directly — no copy
// of the weights is made — and the compressor is recycled, so the save
// path's only per-call allocations are the encoder's own.
func (m *MLP[E]) Save(w io.Writer) error {
	fw := getFlateWriter(w)
	defer flateWriters.Put(fw)
	cf := checkpointFile{
		Magic:      checkpointMagic,
		Version:    checkpointVersion,
		Sizes:      m.Sizes,
		Activation: int(m.Activation),
		Precision:  precisionName[E](),
	}
	switch d := any(m.paramData).(type) {
	case []float64:
		cf.Flat64 = d
	case []float32:
		cf.Flat32 = d
	}
	if err := gob.NewEncoder(fw).Encode(cf); err != nil {
		return fmt.Errorf("nn: encode checkpoint: %w", err)
	}
	return fw.Close()
}

// Load reads a checkpoint from r and returns the model reconstructed at
// precision E, converting from the stored precision if they differ.
func Load[E tensor.Element](r io.Reader) (*MLP[E], error) {
	cf, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	m := NewMLP[E](newZeroRand(), Activation(cf.Activation), cf.Sizes...)
	switch {
	case cf.Version == 1:
		ps := m.Params()
		if len(ps) != len(cf.Weights) {
			return nil, fmt.Errorf("nn: checkpoint has %d tensors, model needs %d", len(cf.Weights), len(ps))
		}
		for i, p := range ps {
			if len(cf.Weights[i]) != len(p.Data) {
				return nil, fmt.Errorf("nn: checkpoint tensor %d has %d values, want %d", i, len(cf.Weights[i]), len(p.Data))
			}
			tensor.Convert(p.Data, cf.Weights[i])
		}
	case cf.Precision == "float64":
		if len(cf.Flat64) != len(m.paramData) {
			return nil, fmt.Errorf("nn: checkpoint has %d parameters, model needs %d", len(cf.Flat64), len(m.paramData))
		}
		tensor.Convert(m.paramData, cf.Flat64)
	case cf.Precision == "float32":
		if len(cf.Flat32) != len(m.paramData) {
			return nil, fmt.Errorf("nn: checkpoint has %d parameters, model needs %d", len(cf.Flat32), len(m.paramData))
		}
		tensor.Convert(m.paramData, cf.Flat32)
	default:
		return nil, fmt.Errorf("nn: unknown checkpoint precision %q", cf.Precision)
	}
	return m, nil
}

// decodeCheckpoint reads and validates the envelope shared by Load and
// CheckpointInfo.
func decodeCheckpoint(r io.Reader) (*checkpointFile, error) {
	fr := flate.NewReader(r)
	defer fr.Close()
	var cf checkpointFile
	if err := gob.NewDecoder(fr).Decode(&cf); err != nil {
		return nil, fmt.Errorf("nn: decode checkpoint: %w", err)
	}
	if cf.Magic != checkpointMagic {
		return nil, fmt.Errorf("nn: not a CAPES checkpoint (magic %q)", cf.Magic)
	}
	if cf.Version != 1 && cf.Version != checkpointVersion {
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d", cf.Version)
	}
	if cf.Version == 1 {
		cf.Precision = "float64" // untagged legacy files are float64
	}
	return &cf, nil
}

// CheckpointInfo reports a checkpoint's precision tag and layer sizes
// without instantiating a model (capes-inspect uses it so operators can
// see what precision a session was trained at).
func CheckpointInfo(r io.Reader) (precision string, sizes []int, err error) {
	cf, err := decodeCheckpoint(r)
	if err != nil {
		return "", nil, err
	}
	return cf.Precision, cf.Sizes, nil
}

// CheckpointInfoFile is CheckpointInfo reading from a file.
func CheckpointInfoFile(path string) (precision string, sizes []int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	return CheckpointInfo(f)
}

// SaveFile writes a checkpoint to path (atomically via a temp file).
func (m *MLP[E]) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a checkpoint from path at precision E.
func LoadFile[E tensor.Element](path string) (*MLP[E], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load[E](f)
}
