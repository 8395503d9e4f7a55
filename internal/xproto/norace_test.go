//go:build !race

package xproto

const raceEnabled = false
