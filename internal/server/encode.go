package server

// The append-style encoder behind /api/v1/query. Every reply line is
// the fixed feature shape of a workload.Event,
//
//	{"geometry":{"coordinates":[x,y],"type":"Point"},"properties":{"category":c,"id":n,"time":t},"type":"Feature"}
//
// with an optional "right":{"category","id","time"} object between
// "id" and "time" for join pairs. The bytes are exactly what
// json.Marshal(feature(kv, nil, nil)) produces — keys in its sorted
// order, its number format, its string escaping — because cached
// bodies, clients and the benchmark oracle all read them; the map form
// in server.go stays as the oracle the tests compare against, and as
// the path for everything that is not a finite point.

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"stark"
	"stark/internal/geom"
	"stark/internal/workload"
)

// appendFeature appends the NDJSON line (newline included) of one
// event keyed by key; a non-nil right adds the join partner to the
// properties. Point keys with finite ordinates are encoded without
// allocating. Any other geometry, and a NaN or infinite ordinate, goes
// through the map form, so those replies and the error for an
// unencodable number are what they always were.
func appendFeature(dst []byte, key stark.STObject, ev workload.Event, right *workload.Event) ([]byte, error) {
	p, ok := key.Geo().(geom.Point)
	if !ok || !finite(p.X) || !finite(p.Y) {
		line, err := json.Marshal(featureMap(key, ev, right))
		if err != nil {
			return dst, err
		}
		return append(append(dst, line...), '\n'), nil
	}
	dst = append(dst, `{"geometry":{"coordinates":[`...)
	dst = appendJSONFloat(dst, p.X)
	dst = append(dst, ',')
	dst = appendJSONFloat(dst, p.Y)
	dst = append(dst, `],"type":"Point"},"properties":{"category":`...)
	dst = appendJSONString(dst, ev.Category)
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendInt(dst, int64(ev.ID), 10)
	if right != nil {
		dst = append(dst, `,"right":{"category":`...)
		dst = appendJSONString(dst, right.Category)
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendInt(dst, int64(right.ID), 10)
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, right.Time, 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `,"time":`...)
	dst = strconv.AppendInt(dst, ev.Time, 10)
	return append(dst, "},\"type\":\"Feature\"}\n"...), nil
}

// featureMap is the map form of a reply line: feature, plus the join
// partner under properties.right when there is one.
func featureMap(key stark.STObject, ev workload.Event, right *workload.Event) map[string]interface{} {
	f := feature(stark.NewTuple(key, ev), nil, nil)
	if right != nil {
		f["properties"].(map[string]interface{})["right"] = map[string]interface{}{
			"id":       right.ID,
			"category": right.Category,
			"time":     right.Time,
		}
	}
	return f
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

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
