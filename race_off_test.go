//go:build !race

package mdgan_test

// raceEnabled relaxes steady-state allocation budgets under the race
// detector; see race_on_test.go.
const raceEnabled = false
