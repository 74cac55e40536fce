package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"knnshapley/internal/binio"
)

// CSV layout: one row per instance, feature columns first, response last.
// Classification responses must be non-negative integers; regression
// responses are arbitrary floats. WriteCSV/ReadCSV round-trip exactly for
// the textual precision used ('g', full precision).

// WriteCSV writes the dataset to w, features first and the response in the
// final column.
func WriteCSV(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	rec := make([]string, d.Dim()+1)
	for i, row := range d.X {
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if d.IsRegression() {
			rec[len(rec)-1] = strconv.FormatFloat(d.Targets[i], 'g', -1, 64)
		} else {
			rec[len(rec)-1] = strconv.Itoa(d.Labels[i])
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV. regression selects how the
// final column is interpreted. For classification the class count is
// max(label)+1.
func ReadCSV(r io.Reader, regression bool) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	d := &Dataset{Name: "csv"}
	dim := -1
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(rec) < 2 {
			return nil, fmt.Errorf("dataset: row %d has %d columns, need >= 2", len(d.X), len(rec))
		}
		if dim == -1 {
			dim = len(rec) - 1
		} else if len(rec)-1 != dim {
			return nil, fmt.Errorf("dataset: row %d has %d features, want %d", len(d.X), len(rec)-1, dim)
		}
		row := make([]float64, dim)
		for j := 0; j < dim; j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", len(d.X), j, err)
			}
			row[j] = v
		}
		d.X = append(d.X, row)
		last := rec[dim]
		if regression {
			v, err := strconv.ParseFloat(last, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d response: %w", len(d.X)-1, err)
			}
			d.Targets = append(d.Targets, v)
		} else {
			y, err := strconv.Atoi(last)
			if err != nil || y < 0 {
				return nil, fmt.Errorf("dataset: row %d label %q invalid", len(d.X)-1, last)
			}
			d.Labels = append(d.Labels, y)
			if y+1 > d.Classes {
				d.Classes = y + 1
			}
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.Flatten()
	return d, nil
}

const binaryMagic = uint32(0x4b4e4e53) // "KNNS"

// BinaryHeader is the fixed 24-byte prefix of the binary dataset format:
// magic "KNNS", version, flags (bit0 = regression), and the shape. It is
// exported so a dataset registry can index on-disk files without decoding
// their payloads.
type BinaryHeader struct {
	N, Dim, Classes int
	Regression      bool
}

// PayloadBytes returns the encoded size of the feature/response payload
// that follows the header.
func (h BinaryHeader) PayloadBytes() int64 {
	b := int64(h.N) * int64(h.Dim) * 8
	if h.Regression {
		return b + int64(h.N)*8
	}
	return b + int64(h.N)*4
}

// EncodedBytes returns the total encoded size, header included.
func (h BinaryHeader) EncodedBytes() int64 { return 24 + h.PayloadBytes() }

// ReadBinaryHeader decodes and validates the fixed header of a binary
// dataset stream, consuming exactly its 24 bytes and leaving r positioned
// at the feature block.
func ReadBinaryHeader(r io.Reader) (BinaryHeader, error) {
	return readHeader(binio.NewPlainReader(io.LimitReader(r, 24)))
}

func readHeader(br *binio.Reader) (BinaryHeader, error) {
	var hdr [6]uint32
	if br.U32s(hdr[:]); br.Err() != nil {
		return BinaryHeader{}, fmt.Errorf("dataset: binary header: %w", br.Err())
	}
	if hdr[0] != binaryMagic {
		return BinaryHeader{}, fmt.Errorf("dataset: bad magic %#x", hdr[0])
	}
	if hdr[1] != 1 {
		return BinaryHeader{}, fmt.Errorf("dataset: unsupported version %d", hdr[1])
	}
	h := BinaryHeader{
		N: int(hdr[3]), Dim: int(hdr[4]), Classes: int(hdr[5]),
		Regression: hdr[2]&1 != 0,
	}
	// n == 0 is rejected symmetrically with WriteBinary: an empty dataset
	// has no recoverable dimension, so such a stream can only be forged.
	if h.N <= 0 || h.N > 1<<31 || h.Dim <= 0 || h.Dim > 1<<20 {
		return BinaryHeader{}, fmt.Errorf("dataset: implausible size n=%d dim=%d", h.N, h.Dim)
	}
	return h, nil
}

// WriteBinary writes the dataset in a compact little-endian binary format:
// magic, version, flags (bit0 = regression), n, dim, classes, then n*dim
// float64 features followed by the responses (float64 targets or int32
// labels).
func WriteBinary(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if d.N() == 0 {
		// An empty dataset has no recoverable dimension (Dim() is 0 with no
		// rows), so its encoding could never be read back; reject it here
		// rather than persist an unreadable file.
		return errors.New("dataset: refusing to encode an empty dataset")
	}
	var flags uint32
	if d.IsRegression() {
		flags |= 1
	}
	bw := binio.NewPlainWriter(w)
	bw.U32s([]uint32{binaryMagic, 1, flags, uint32(d.N()), uint32(d.Dim()), uint32(d.Classes)})
	for _, row := range d.X {
		bw.F64s(row)
	}
	if d.IsRegression() {
		bw.F64s(d.Targets)
	} else {
		labels := make([]uint32, len(d.Labels))
		for i, y := range d.Labels {
			labels[i] = uint32(y)
		}
		bw.U32s(labels)
	}
	return bw.Flush()
}

// ReadBinary parses a dataset written by WriteBinary. The decoded dataset is
// contiguous (flat row-major backing) and round-trips WriteBinary
// bit-identically, fingerprint included. Its buffers grow with the bytes
// actually read, so a header declaring a huge shape fails on a short body
// without a giant allocation (the property FuzzBinaryCodec pins).
func ReadBinary(r io.Reader) (*Dataset, error) {
	br := binio.NewPlainReader(r)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	flat := br.F64sN(h.N * h.Dim)
	var targets []float64
	var labels []uint32
	if h.Regression {
		targets = br.F64sN(h.N)
	} else {
		labels = br.U32sN(h.N)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("dataset: binary payload: %w", err)
	}
	d := FromFlat(flat, h.N, h.Dim)
	d.Name = "binary"
	d.Classes = h.Classes
	d.Targets = targets
	if labels != nil {
		d.Labels = make([]int, h.N)
		for i, y := range labels {
			d.Labels[i] = int(int32(y))
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
