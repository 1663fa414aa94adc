//go:build !race

package rqrmi

const raceEnabled = false
