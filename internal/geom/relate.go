package geom

// This file completes the JTS-style predicate set with the two
// boundary-sensitive relations STARK's relatives (GeoSpark, Sedona)
// also expose: Touches (boundaries meet, interiors stay apart) and
// Overlaps (interiors partially overlap, neither contains the other).
// Both are defined here for the polygon-centric combinations the
// event pipelines use; point/point pairs follow the OGC convention
// that Touches is always false between points.

// Touches reports whether the geometries intersect but only at their
// boundaries: they share at least one point, yet no interior point of
// one lies in the interior of the other.
func Touches(g1, g2 Geometry) bool {
	if !Intersects(g1, g2) {
		return false
	}
	// Point sets have empty boundaries: two puntal geometries can
	// never touch (OGC convention).
	if isPuntal(g1) && isPuntal(g2) {
		return false
	}
	if g2.kind() < g1.kind() {
		g1, g2 = g2, g1 // the arms below take g2 of g1's kind or later
	}
	switch a := g1.(type) {
	case Point:
		return locate(a, g2) == 0
	case MultiPoint:
		// At least one member on the boundary, none in the interior.
		any := false
		for i := 0; i < a.NumPoints(); i++ {
			switch locate(a.PointAt(i), g2) {
			case 1:
				return false
			case 0:
				any = true
			}
		}
		return any
	case LineString:
		switch b := g2.(type) {
		case Polygon:
			return lineTouchesPolygon(a, b)
		case LineString:
			// Lines touch when they intersect only at endpoints of at
			// least one of them. Approximate via midpoint probing: a
			// shared non-endpoint crossing makes the interiors meet.
			return linesTouch(a, b)
		}
	case Polygon:
		if b, ok := g2.(Polygon); ok {
			return polygonsTouch(a, b)
		}
	}
	return false
}

// isPuntal reports whether the geometry is a point set.
func isPuntal(g Geometry) bool {
	switch g.(type) {
	case Point, MultiPoint:
		return true
	}
	return false
}

// locate classifies a point against a geometry: 1 interior,
// 0 boundary, -1 exterior. For points and lines, every covered point
// counts as boundary for points and interior for line interiors.
func locate(p Point, g Geometry) int {
	switch b := g.(type) {
	case Point, MultiPoint:
		if intersectsPoint(p, b) {
			return 0 // a point's boundary is empty; treat equality as contact
		}
		return -1
	case LineString:
		if !intersectsPoint(p, b) {
			return -1
		}
		// Endpoints form the boundary of a line string.
		if p.Equal(b.PointAt(0)) || p.Equal(b.PointAt(b.NumPoints()-1)) {
			return 0
		}
		return 1
	case Polygon:
		return polygonContainsPoint(b, p)
	}
	return -1
}

func lineTouchesPolygon(l LineString, poly Polygon) bool {
	// No vertex or midpoint of the line may lie in the interior.
	for i := 0; i < l.NumPoints(); i++ {
		if polygonContainsPoint(poly, l.PointAt(i)) == 1 {
			return false
		}
	}
	for i := 1; i < l.NumPoints(); i++ {
		a, b := l.PointAt(i-1), l.PointAt(i)
		mid := Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
		if polygonContainsPoint(poly, mid) == 1 {
			return false
		}
	}
	return true
}

func linesTouch(l1, l2 LineString) bool {
	ends := func(l LineString) []Point {
		return []Point{l.PointAt(0), l.PointAt(l.NumPoints() - 1)}
	}
	// Every intersection of segment pairs must involve an endpoint of
	// one of the lines; a proper crossing joins the interiors.
	for i := 1; i < l1.NumPoints(); i++ {
		for j := 1; j < l2.NumPoints(); j++ {
			a1, a2 := l1.PointAt(i-1), l1.PointAt(i)
			b1, b2 := l2.PointAt(j-1), l2.PointAt(j)
			if !segmentsIntersect(a1, a2, b1, b2) {
				continue
			}
			// Proper crossing (all four orientations non-zero) means
			// interior-interior contact.
			d1 := orientation(b1, b2, a1)
			d2 := orientation(b1, b2, a2)
			d3 := orientation(a1, a2, b1)
			d4 := orientation(a1, a2, b2)
			if d1 != 0 && d2 != 0 && d3 != 0 && d4 != 0 {
				return false
			}
			// Collinear or endpoint contact: allowed only at the
			// boundary of one of the lines. Check the contact points.
			contact := false
			for _, e := range ends(l1) {
				if pointOnSegment(b1, b2, e) {
					contact = true
				}
			}
			for _, e := range ends(l2) {
				if pointOnSegment(a1, a2, e) {
					contact = true
				}
			}
			if !contact {
				return false
			}
		}
	}
	return true
}

func polygonsTouch(p1, p2 Polygon) bool {
	// No vertex of either polygon strictly inside the other, and no
	// boundary-crossing midpoint inside either. With Intersects
	// already true, that leaves boundary-only contact.
	sh1, sh2 := p1.Shell(), p2.Shell()
	for i := 0; i < sh1.NumPoints(); i++ {
		if polygonContainsPoint(p2, sh1.PointAt(i)) == 1 {
			return false
		}
	}
	for i := 0; i < sh2.NumPoints(); i++ {
		if polygonContainsPoint(p1, sh2.PointAt(i)) == 1 {
			return false
		}
	}
	// Edge-crossing check via midpoints of intersecting edge pairs.
	for i := 1; i < sh1.NumPoints(); i++ {
		a1, a2 := sh1.PointAt(i-1), sh1.PointAt(i)
		for j := 1; j < sh2.NumPoints(); j++ {
			b1, b2 := sh2.PointAt(j-1), sh2.PointAt(j)
			if !segmentsIntersect(a1, a2, b1, b2) {
				continue
			}
			d1 := orientation(b1, b2, a1)
			d2 := orientation(b1, b2, a2)
			d3 := orientation(a1, a2, b1)
			d4 := orientation(a1, a2, b2)
			if d1 != 0 && d2 != 0 && d3 != 0 && d4 != 0 {
				return false // proper crossing → interiors overlap
			}
		}
	}
	return true
}

// Overlaps reports whether two geometries of the same dimension share
// interior points without either containing the other — the classic
// "partial overlap" relation. Points never overlap (they are either
// equal or disjoint); it is defined here for polygon/polygon and
// line/line pairs.
func Overlaps(g1, g2 Geometry) bool {
	if !Intersects(g1, g2) {
		return false
	}
	if Covers(g1, g2) || Covers(g2, g1) {
		return false
	}
	switch a := g1.(type) {
	case Polygon:
		b, ok := g2.(Polygon)
		if !ok {
			return false
		}
		return !polygonsTouch(a, b)
	case LineString:
		b, ok := g2.(LineString)
		if !ok {
			return false
		}
		return !linesTouch(a, b)
	default:
		return false
	}
}
