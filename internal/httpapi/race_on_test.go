//go:build race

package httpapi_test

const raceEnabled = true
