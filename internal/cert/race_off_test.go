//go:build !race

package cert

const raceEnabled = false
