//go:build !race

package compile

const raceDetector = false
