package mdgan

// The CLI spec parsers for mdgan-train's -free-riders and -lifetimes
// flags.

import (
	"fmt"
	"strconv"
	"strings"
)

// freeRiderVariants names the FreeRider* modes for the CLI spec.
var freeRiderVariants = map[string]ByzantineMode{
	"random": FreeRiderRandom,
	"replay": FreeRiderReplay,
	"noise":  FreeRiderScaledNoise,
}

// ParseFreeRiders parses a -free-riders CLI spec into an
// Options.Byzantine map of FreeRider* modes (fabricated feedback, no
// local training). Two forms:
//
//	"N"  or "N:variant"        — the first N workers (indices 0..N-1)
//	"i=variant,j=variant,..."  — explicit per-index assignments
//
// where variant is one of "random" (default), "replay", "noise". An
// empty spec yields nil.
func ParseFreeRiders(spec string) (map[int]ByzantineMode, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	out := make(map[int]ByzantineMode)
	if !strings.Contains(spec, "=") {
		count, variant := spec, "random"
		if c, v, ok := strings.Cut(spec, ":"); ok {
			count, variant = c, v
		}
		n, err := strconv.Atoi(count)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("mdgan: free-rider count %q", count)
		}
		mode, ok := freeRiderVariants[variant]
		if !ok {
			return nil, fmt.Errorf("mdgan: free-rider variant %q (want random, replay or noise)", variant)
		}
		for i := 0; i < n; i++ {
			out[i] = mode
		}
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		idxStr, variant, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mdgan: free-rider entry %q (want i=variant)", part)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("mdgan: free-rider index %q", idxStr)
		}
		mode, okV := freeRiderVariants[variant]
		if !okV {
			return nil, fmt.Errorf("mdgan: free-rider variant %q (want random, replay or noise)", variant)
		}
		out[idx] = mode
	}
	return out, nil
}

// ParseLifetimes parses a -lifetimes CLI spec "i=join:retire,..." into
// a Lifetimes map. join 0 means present from the start; retire 0 means
// never. An empty spec yields nil.
func ParseLifetimes(spec string) (map[int]Lifetime, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	out := make(map[int]Lifetime)
	for _, part := range strings.Split(spec, ",") {
		idxStr, window, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mdgan: lifetime entry %q (want i=join:retire)", part)
		}
		joinStr, retireStr, ok := strings.Cut(window, ":")
		if !ok {
			return nil, fmt.Errorf("mdgan: lifetime window %q (want join:retire)", window)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("mdgan: lifetime index %q", idxStr)
		}
		join, err := strconv.Atoi(joinStr)
		if err != nil {
			return nil, fmt.Errorf("mdgan: lifetime join %q", joinStr)
		}
		retire, err := strconv.Atoi(retireStr)
		if err != nil {
			return nil, fmt.Errorf("mdgan: lifetime retire %q", retireStr)
		}
		out[idx] = Lifetime{Join: join, Retire: retire}
	}
	return out, nil
}
