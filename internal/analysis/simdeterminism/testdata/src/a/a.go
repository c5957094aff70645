// Package a is the simdeterminism violation/allowed fixture.
package a

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"livelock/internal/sim"
)

func clocks() {
	start := time.Now()          // want `time\.Now reads the wall clock`
	_ = time.Since(start)        // want `time\.Since reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

func globalRand() int {
	r := rand.New(rand.NewSource(1))   // seeded constructor: fine
	_ = r.Intn(6)                      // method on a seeded generator: fine
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand state`
	return rand.Intn(6)                // want `global math/rand state`
}

func env() string {
	if _, ok := os.LookupEnv("DEBUG"); ok { // want `os\.LookupEnv makes results depend on the environment`
		return ""
	}
	return os.Getenv("HOME") // want `os\.Getenv makes results depend on the environment`
}

// collect-then-sort is the sanctioned idiom.
func sortedKeys(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

func unsortedPrint(m map[string]int) {
	for k, v := range m { // want `map iteration order is nondeterministic and this loop formats output`
		fmt.Println(k, v)
	}
}

func unsortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `appends to keys, which is never sorted`
		keys = append(keys, k)
	}
	return keys
}

// Order-insensitive aggregation passes.
func sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Arming a Timer schedules its event: the arm order sets the seq order
// of same-instant firings.
func armAll(eng *sim.Engine, timers map[string]*sim.Timer) {
	for _, tm := range timers { // want `map iteration order is nondeterministic and this loop schedules engine events`
		eng.ArmAfter(tm, 1)
	}
}

// Disarming is order-insensitive: every disarm removes its own node.
func disarmAll(eng *sim.Engine, timers map[string]*sim.Timer) {
	for _, tm := range timers {
		eng.Disarm(tm)
	}
}

// Slice iteration is ordered; no diagnostic even with output in the body.
func slicePrint(s []int) {
	for _, v := range s {
		fmt.Println(v)
	}
}
