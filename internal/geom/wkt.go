package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file implements a Well-Known Text reader and writer for the
// geometry kinds the kernel supports: POINT, MULTIPOINT, LINESTRING
// and POLYGON (with holes). The reader is a small hand-rolled
// recursive-descent parser; it accepts both the standard MULTIPOINT
// form "MULTIPOINT ((1 2), (3 4))" and the legacy "MULTIPOINT (1 2,
// 3 4)" form, plus the EMPTY keyword.

// ParseWKT parses a WKT string into a Geometry.
func ParseWKT(s string) (Geometry, error) {
	p := wktParser{src: s}
	g, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("geom: parsing WKT %q: %w", truncate(s, 64), err)
	}
	return g, nil
}

// MustParseWKT is ParseWKT but panics on error; for literals in tests
// and examples.
func MustParseWKT(s string) Geometry {
	g, err := ParseWKT(s)
	if err != nil {
		panic(err)
	}
	return g
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

type wktParser struct {
	src string
	pos int
}

func (p *wktParser) parse() (Geometry, error) {
	tag := strings.ToUpper(p.ident())
	switch tag {
	case "POINT":
		if p.acceptEmpty() {
			return Point{X: nan(), Y: nan()}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return pt, p.end()
	case "MULTIPOINT":
		if p.acceptEmpty() {
			return MultiPoint{}, nil
		}
		pts, err := p.multiPointBody()
		if err != nil {
			return nil, err
		}
		return NewMultiPoint(pts), p.end()
	case "LINESTRING":
		if p.acceptEmpty() {
			return LineString{}, nil
		}
		pts, err := p.coordList()
		if err != nil {
			return nil, err
		}
		ls, err := NewLineString(pts)
		if err != nil {
			return nil, err
		}
		return ls, p.end()
	case "POLYGON":
		if p.acceptEmpty() {
			return Polygon{}, nil
		}
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var rings []Ring
		for {
			pts, err := p.coordList()
			if err != nil {
				return nil, err
			}
			r, err := NewRing(pts)
			if err != nil {
				return nil, err
			}
			rings = append(rings, r)
			if !p.accept(',') {
				break
			}
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return NewPolygon(rings[0], rings[1:]...), p.end()
	case "":
		return nil, fmt.Errorf("empty input")
	default:
		return nil, fmt.Errorf("unsupported geometry type %q", tag)
	}
}

// multiPointBody parses either ((x y), (x y)) or (x y, x y).
func (p *wktParser) multiPointBody() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		var pt Point
		var err error
		if p.accept('(') {
			pt, err = p.coord()
			if err != nil {
				return nil, err
			}
			if err := p.expect(')'); err != nil {
				return nil, err
			}
		} else {
			pt, err = p.coord()
			if err != nil {
				return nil, err
			}
		}
		pts = append(pts, pt)
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

// coordList parses "(x y, x y, ...)".
func (p *wktParser) coordList() ([]Point, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var pts []Point
	for {
		pt, err := p.coord()
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
		if !p.accept(',') {
			break
		}
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return pts, nil
}

// coord parses "x y".
func (p *wktParser) coord() (Point, error) {
	x, err := p.number()
	if err != nil {
		return Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return Point{}, err
	}
	return Point{X: x, Y: y}, nil
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// ident consumes a run of letters.
func (p *wktParser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

// acceptEmpty consumes the EMPTY keyword if present.
func (p *wktParser) acceptEmpty() bool {
	save := p.pos
	word := p.ident()
	if strings.EqualFold(word, "EMPTY") {
		return true
	}
	p.pos = save
	return false
}

func (p *wktParser) accept(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *wktParser) expect(c byte) error {
	if !p.accept(c) {
		got := "end of input"
		if p.pos < len(p.src) {
			got = fmt.Sprintf("%q", p.src[p.pos])
		}
		return fmt.Errorf("expected %q at offset %d, got %s", c, p.pos, got)
	}
	return nil
}

func (p *wktParser) end() error {
	p.skipSpace()
	if p.pos != len(p.src) {
		return fmt.Errorf("trailing input at offset %d", p.pos)
	}
	return nil
}

// number parses a float64 token.
func (p *wktParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, fmt.Errorf("expected number at offset %d", start)
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q at offset %d", p.src[start:p.pos], start)
	}
	return v, nil
}

func nan() float64 {
	f := 0.0
	return f / f
}

// ---- Writers ----

// WKT implements Geometry for Point.
func (p Point) WKT() string {
	if p.IsEmpty() {
		return "POINT EMPTY"
	}
	var buf [64]byte // "POINT (" and two ordinates of at most 24 bytes each
	return string(append(appendCoord(append(buf[:0], "POINT ("...), p), ')'))
}

// WKT implements Geometry for MultiPoint.
func (m MultiPoint) WKT() string {
	if m.IsEmpty() {
		return "MULTIPOINT EMPTY"
	}
	b := []byte("MULTIPOINT (")
	for i, p := range m.pts {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(appendCoord(append(b, '('), p), ')')
	}
	return string(append(b, ')'))
}

// WKT implements Geometry for LineString.
func (l LineString) WKT() string {
	if l.IsEmpty() {
		return "LINESTRING EMPTY"
	}
	return string(appendCoordList([]byte("LINESTRING "), l.pts))
}

// WKT implements Geometry for Polygon.
func (p Polygon) WKT() string {
	if p.IsEmpty() {
		return "POLYGON EMPTY"
	}
	b := appendCoordList([]byte("POLYGON ("), p.shell.pts)
	for _, h := range p.holes {
		b = appendCoordList(append(b, ", "...), h.pts)
	}
	return string(append(b, ')'))
}

func appendCoordList(dst []byte, pts []Point) []byte {
	dst = append(dst, '(')
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoord(dst, p)
	}
	return append(dst, ')')
}

// appendCoord appends "x y", each ordinate as strconv.FormatFloat(v,
// 'g', -1, 64) spells it. That is fixed notation exactly for magnitudes
// in [1e-4, 1e6), which AppendFixed writes.
func appendCoord(dst []byte, p Point) []byte {
	return appendOrdinate(append(appendOrdinate(dst, p.X), ' '), p.Y)
}

func appendOrdinate(dst []byte, v float64) []byte {
	if abs := math.Abs(v); abs >= 1e-4 && abs < 1e6 {
		return AppendFixed(dst, v)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
