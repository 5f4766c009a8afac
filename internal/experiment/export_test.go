package experiment

import (
	"context"

	"cohmeleon/internal/soc"
)

// forEach fans n trials out on up to workers goroutines with no gate or
// retry policy (see fanout.run).
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	return fanout{ctx: ctx, workers: workers}.run(n, fn)
}

// Result lookups that only tests use: the reports render every point.

// Point returns a variant's measurement.
func (r *AblationResult) Point(variant string) (AblationPoint, bool) {
	for _, p := range r.Points {
		if p.Variant == variant {
			return p, true
		}
	}
	return AblationPoint{}, false
}

// Slowdown returns the normalized execution time for a mode at a
// concurrency level.
func (r *Fig3Result) Slowdown(mode soc.Mode, accs int) float64 {
	for _, p := range r.Points {
		if p.Mode == mode && p.Accs == accs {
			return p.NormExec
		}
	}
	return 0
}

// Share returns a policy's selection share of a mode for a size key.
func (r *Fig7Result) Share(pol, size string, mode soc.Mode) float64 {
	for _, row := range r.Rows {
		if row.Policy == pol && row.Size == size {
			return row.Percent[mode]
		}
	}
	return 0
}

// Final returns the last point of a schedule.
func (r *Fig8Result) Final(schedule int) (Fig8Point, bool) {
	var out Fig8Point
	found := false
	for _, p := range r.Points {
		if p.Schedule == schedule && (!found || p.Iteration > out.Iteration) {
			out = p
			found = true
		}
	}
	return out, found
}

// At returns the point for a schedule and iteration.
func (r *Fig8Result) At(schedule, iter int) (Fig8Point, bool) {
	for _, p := range r.Points {
		if p.Schedule == schedule && p.Iteration == iter {
			return p, true
		}
	}
	return Fig8Point{}, false
}

// Row returns the aggregate for a stack label.
func (r *LearnersResult) Row(stack string) (LearnerRow, bool) {
	for _, row := range r.Rows {
		if row.Stack == stack {
			return row, true
		}
	}
	return LearnerRow{}, false
}
