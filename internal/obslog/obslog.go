// Package obslog serializes sniffer observation streams so the attack can
// run offline, decoupled from the simulator that produced the measurements
// — the workflow of a real adversary who records passively sniffed traffic
// volumes in the field and fingerprints the users later.
//
// The format is JSON Lines: the first line is a Header (field geometry,
// sniffer positions, model calibration), each following line one timed
// observation vector. The format is stable and documented so captures from
// real deployments can be replayed through the same pipeline.
package obslog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"fluxtrack/internal/geom"
)

// Header describes a recording: everything the offline attack needs beyond
// the observations themselves.
type Header struct {
	// Field is the deployment region of the sensor network.
	Field geom.Rect `json:"field"`
	// Points are the sniffer positions, in reading order.
	Points []geom.Point `json:"points"`
	// HopLength is the calibrated average hop length r of the network, the
	// constant of the discrete flux model.
	HopLength float64 `json:"hopLength"`
	// Comment is free-form provenance (scenario, date, tool version).
	Comment string `json:"comment,omitempty"`
}

// Entry is one observation: flux readings aligned with Header.Points.
type Entry struct {
	Time     float64   `json:"time"`
	Readings []float64 `json:"readings"`
}

// Writer appends observations to a stream.
type Writer struct {
	enc       *json.Encoder
	bw        *bufio.Writer
	numPoints int
	wroteHdr  bool
}

// NewWriter returns a Writer that emits the header immediately.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if len(h.Points) == 0 {
		return nil, errors.New("obslog: header needs at least one sniffer point")
	}
	if h.HopLength <= 0 {
		return nil, fmt.Errorf("obslog: header hop length must be positive, got %v", h.HopLength)
	}
	bw := bufio.NewWriter(w)
	out := &Writer{enc: json.NewEncoder(bw), bw: bw, numPoints: len(h.Points)}
	if err := out.enc.Encode(h); err != nil {
		return nil, fmt.Errorf("obslog: write header: %w", err)
	}
	out.wroteHdr = true
	return out, nil
}

// Append writes one observation.
func (w *Writer) Append(e Entry) error {
	if len(e.Readings) != w.numPoints {
		return fmt.Errorf("obslog: entry has %d readings, want %d", len(e.Readings), w.numPoints)
	}
	if err := w.enc.Encode(e); err != nil {
		return fmt.Errorf("obslog: write entry: %w", err)
	}
	return nil
}

// Flush flushes buffered output; call it before closing the underlying
// file.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Read parses a complete recording, requiring entry times to be strictly
// increasing — the format a well-behaved Writer produces.
func Read(r io.Reader) (Header, []Entry, error) {
	h, entries, err := read(r)
	if err != nil {
		return Header{}, nil, err
	}
	prev := -1.0
	for i, e := range entries {
		if e.Time <= prev {
			return Header{}, nil, fmt.Errorf("obslog: entry %d time %v not increasing (prev %v)",
				i, e.Time, prev)
		}
		prev = e.Time
	}
	return h, entries, nil
}

// read parses the header and raw entry stream without ordering checks.
func read(r io.Reader) (Header, []Entry, error) {
	dec := json.NewDecoder(r)
	var h Header
	if err := dec.Decode(&h); err != nil {
		return Header{}, nil, fmt.Errorf("obslog: read header: %w", err)
	}
	if len(h.Points) == 0 {
		return Header{}, nil, errors.New("obslog: header has no sniffer points")
	}
	if h.HopLength <= 0 {
		return Header{}, nil, fmt.Errorf("obslog: header hop length %v invalid", h.HopLength)
	}
	var entries []Entry
	for {
		var e Entry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return Header{}, nil, fmt.Errorf("obslog: read entry %d: %w", len(entries), err)
		}
		if len(e.Readings) != len(h.Points) {
			return Header{}, nil, fmt.Errorf("obslog: entry %d has %d readings, want %d",
				len(entries), len(e.Readings), len(h.Points))
		}
		entries = append(entries, e)
	}
	return h, entries, nil
}
