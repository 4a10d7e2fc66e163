//go:build race

package compile

const raceDetector = true
