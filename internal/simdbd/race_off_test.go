//go:build !race

package simdbd

const raceEnabled = false
