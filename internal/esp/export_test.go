package esp

// ActiveCount returns the number of in-flight accelerator invocations.
func (tr *Tracker) ActiveCount() int { return len(tr.active) }
