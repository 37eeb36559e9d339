package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (the numpy default): exact on one sample, the
// midpoint of two, and never outside the sample range. It returns NaN
// for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	if lo < 0 {
		return s[0]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// LogHist's bucket layout (internal/metrics/loghist.go): 176 buckets
// at 8 per octave from 1e-4. decodeLogHist checks the decoded state
// against the histogram's accessors, so a layout change fails loudly.
const (
	histBuckets   = 176
	histBase      = 1e-4
	histPerOctave = 8
)

type histState struct {
	count    uint64
	sum      float64
	min, max float64
	buckets  [histBuckets]uint32
}

func decodeLogHist(h *metrics.LogHist) (histState, error) {
	var buf bytes.Buffer
	if err := h.WriteBinary(&buf); err != nil {
		return histState{}, err
	}
	var s histState
	r := bytes.NewReader(buf.Bytes())
	for _, v := range []any{&s.count, &s.sum, &s.min, &s.max, &s.buckets} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return histState{}, fmt.Errorf("decode LogHist: %w", err)
		}
	}
	if r.Len() != 0 || int(s.count) != h.N() || s.count > 0 && (s.min != h.Min() || s.max != h.Max()) {
		return histState{}, fmt.Errorf("decode LogHist: layout changed")
	}
	return s, nil
}

// histQuantile estimates the q-quantile of a LogHist, interpolating
// geometrically inside the bucket that holds it (LogHist.Quantile
// returns the bucket midpoint, which reads identically for nearby
// samples). The estimate stays within the observed min and max.
func histQuantile(h *metrics.LogHist, q float64) (float64, error) {
	s, err := decodeLogHist(h)
	if err != nil || s.count == 0 {
		return 0, err
	}
	target := q * float64(s.count)
	var seen float64
	for i, c := range s.buckets {
		if c == 0 || seen+float64(c) < target {
			seen += float64(c)
			continue
		}
		lo := histBase * math.Pow(2, float64(i)/histPerOctave)
		hi := lo * math.Pow(2, 1.0/histPerOctave)
		f := (target - seen) / float64(c)
		v := lo * math.Pow(hi/lo, f)
		if i == 0 {
			v = hi * f // bucket 0 also holds everything below base
		}
		return math.Min(math.Max(v, s.min), s.max), nil
	}
	return s.max, nil
}
