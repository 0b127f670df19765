package explore

// Frontier returns the Pareto-optimal points of the latency/area
// trade-off: every point for which no other point is at least as good on
// both axes and strictly better on one. Failed points are excluded. The
// result is sorted by (latency, area).
func Frontier(points []Point) []Point {
	var ok []Point
	for _, p := range points {
		if p.Err == "" {
			ok = append(ok, p)
		}
	}
	sortStable(ok)
	var front []Point
	bestArea := 0.0
	for _, p := range ok {
		if len(front) == 0 || p.Area < bestArea {
			front = append(front, p)
			bestArea = p.Area
		}
	}
	return front
}

// BestCycles returns the point with the fewest latency cycles (ties break
// toward smaller area, then canonical config order); nil when every point
// failed.
func BestCycles(points []Point) *Point {
	var best *Point
	for i := range points {
		p := &points[i]
		if p.Err != "" {
			continue
		}
		if best == nil || p.Latency < best.Latency ||
			(p.Latency == best.Latency && p.Area < best.Area) ||
			(p.Latency == best.Latency && p.Area == best.Area &&
				p.Config.String() < best.Config.String()) {
			best = p
		}
	}
	return best
}

// BestArea returns the smallest-area point (ties break toward fewer
// cycles, then canonical config order); nil when every point failed.
func BestArea(points []Point) *Point {
	var best *Point
	for i := range points {
		p := &points[i]
		if p.Err != "" {
			continue
		}
		if best == nil || p.Area < best.Area ||
			(p.Area == best.Area && p.Latency < best.Latency) ||
			(p.Area == best.Area && p.Latency == best.Latency &&
				p.Config.String() < best.Config.String()) {
			best = p
		}
	}
	return best
}
