package server

// The append-style encoder behind every /api/v1/query reply line. A
// line is the GeoJSON feature of a catalog row (time read from its key),
//
//	{"geometry":{"coordinates":[x,y],"type":"Point"},"properties":{"category":c,"id":n,"time":t},"type":"Feature"}
//
// whose properties may carry one of the extras: a kNN neighbour's
// "distance" or a DBSCAN "cluster" label between "category" and "id",
// and a join partner's "right":{"category","id","time"} object between
// "id" and "time". The bytes are exactly what json.Marshal makes of the
// map form — keys in its sorted order, its number format, its string
// escaping, its error for NaN and the infinities — because cached
// bodies, clients and the benchmark oracle all read them; the map form
// lives in encode_test.go as the oracle the tests compare against.

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"stark"
	"stark/internal/geom"
)

// extras are the properties a line adds to the event's own; each is
// written only when set. A join partner is a pair's RightKey and Right.
type extras struct {
	right    *joinRow
	distance *float64
	cluster  *int
}

// appendFeature appends the NDJSON line (newline included) of one
// catalog row. Point keys are encoded without allocating. A NaN or
// infinite number fails the line with encoding/json's error and leaves
// dst as it was.
func appendFeature(dst []byte, key stark.STObject, ev eventValue, x extras) ([]byte, error) {
	start := len(dst)
	dst, err := appendGeometry(append(dst, `{"geometry":`...), key)
	if err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"properties":{"category":`...)
	dst = appendJSONString(dst, ev.Category)
	if x.cluster != nil {
		dst = append(dst, `,"cluster":`...)
		dst = strconv.AppendInt(dst, int64(*x.cluster), 10)
	}
	if x.distance != nil {
		if dst, err = appendNumber(append(dst, `,"distance":`...), *x.distance); err != nil {
			return dst[:start], err
		}
	}
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendInt(dst, ev.ID, 10)
	if pair := x.right; pair != nil {
		dst = append(dst, `,"right":{"category":`...)
		dst = appendJSONString(dst, pair.Right.Category)
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendInt(dst, pair.Right.ID, 10)
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, eventTime(pair.RightKey), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendInt(dst, eventTime(key), 10)
	return append(dst, "},\"type\":\"Feature\"}\n"...), nil
}

// appendGeometry writes the GeoJSON object of key's geometry, a point
// key's from the coordinates it holds. A geometry of no other kind, a
// nil one included, is an empty GeometryCollection.
func appendGeometry(dst []byte, key stark.STObject) ([]byte, error) {
	var err error
	if p, ok := key.Point(); ok {
		dst, err = appendPosition(append(dst, `{"coordinates":`...), p)
		return append(dst, `,"type":"Point"}`...), err
	}
	switch t := key.Geo().(type) {
	case geom.MultiPoint:
		dst, err = appendPositions(append(dst, `{"coordinates":`...), t)
		return append(dst, `,"type":"MultiPoint"}`...), err
	case geom.LineString:
		dst, err = appendPositions(append(dst, `{"coordinates":`...), t)
		return append(dst, `,"type":"LineString"}`...), err
	case geom.Polygon:
		dst, err = appendPositions(append(dst, `{"coordinates":[`...), t.Shell())
		for h := 0; h < t.NumHoles() && err == nil; h++ {
			dst, err = appendPositions(append(dst, ','), t.HoleAt(h))
		}
		return append(dst, `],"type":"Polygon"}`...), err
	default:
		return append(dst, `{"geometries":[],"type":"GeometryCollection"}`...), nil
	}
}

// appendPositions writes the points of a MultiPoint, LineString or
// polygon ring as an array of positions.
func appendPositions[S interface {
	NumPoints() int
	PointAt(int) geom.Point
}](dst []byte, s S) ([]byte, error) {
	dst = append(dst, '[')
	for i := 0; i < s.NumPoints(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendPosition(dst, s.PointAt(i)); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendPosition writes [x,y].
func appendPosition(dst []byte, p geom.Point) ([]byte, error) {
	dst, err := appendNumber(append(dst, '['), p.X)
	if err != nil {
		return dst, err
	}
	if dst, err = appendNumber(append(dst, ','), p.Y); err != nil {
		return dst, err
	}
	return append(dst, ']'), nil
}

// appendNumber is appendJSONFloat with encoding/json's refusal of NaN
// and the infinities.
func appendNumber(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return appendJSONFloat(dst, f), nil
}

// appendJSONFloat formats a finite float64 the way encoding/json does:
// shortest round-trip digits, exponent form only outside [1e-6, 1e21),
// and a negative two-digit exponent with its leading zero cut
// (e-09 → e-9). Fixed notation comes from geom.AppendFixed.
func appendJSONFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return geom.AppendFixed(dst, f)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s the way json.Marshal does (HTML-safe):
// ", \ and the control characters are escaped, so are <, > and &,
// U+2028 and U+2029, and every byte of invalid UTF-8 becomes the six
// characters \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
