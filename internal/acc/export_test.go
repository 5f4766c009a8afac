package acc

// Plan accessors that only tests read: the traffic generator drives a
// plan through Next alone.

// Chunks returns the total number of chunks the plan will produce.
func (p *Plan) Chunks() int {
	perPass := (p.readLines + p.chunkLines - 1) / p.chunkLines
	return int(perPass) * p.passes
}

// Passes returns the number of passes over the dataset.
func (p *Plan) Passes() int { return p.passes }

// TotalLines returns the dataset size in lines.
func (p *Plan) TotalLines() int64 { return p.lines }
