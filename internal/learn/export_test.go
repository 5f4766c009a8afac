package learn

import "fmt"

// Decode expands a state index back into attribute buckets, the inverse
// of Encoder.Encode that the encoder tests check against.
func Decode(s State) [NumAttributes]int {
	if int(s) >= NumStates {
		panic(fmt.Sprintf("learn: state %d out of range", s))
	}
	var v [NumAttributes]int
	idx := int(s)
	for a := NumAttributes - 1; a >= 0; a-- {
		v[a] = idx % valuesPerAttribute
		idx /= valuesPerAttribute
	}
	return v
}
