package server

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Wait blocks until the job settles (terminal, or interrupted by a
// drain) and returns its state.
func (j *Job) Wait() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.settled {
		j.cond.Wait()
	}
	return j.state
}
