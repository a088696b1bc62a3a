//go:build race

package cert

// raceEnabled reports a -race build, under which the pure-Go P-224, P-384
// and P-521 arithmetic runs ≈ 10× slower.
const raceEnabled = true
