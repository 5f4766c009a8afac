package policy

import "cohmeleon/internal/soc"

// Mode returns the configured mode.
func (f *Fixed) Mode() soc.Mode { return f.mode }
