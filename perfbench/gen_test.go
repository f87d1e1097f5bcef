package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/guest"
)

// defaultLRU is the server's default result-cache size (-cache-size).
const defaultLRU = 1024

// encode renders a stream as JSON lines, the byte form these tests compare.
func encode(t *testing.T, st *Stream) []byte {
	t.Helper()
	var b []byte
	for _, r := range st.All() {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	return append(b, fmt.Sprintf("rate %g\n", st.Rate)...)
}

func encodeJobs(t *testing.T, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(BatchJobs(seed))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	gens := map[string]func(seed int64) []byte{
		"hot-mix":    func(seed int64) []byte { return encode(t, HotMix(seed, 4)) },
		"cold-embed": func(seed int64) []byte { return encode(t, ColdEmbed(seed, 4)) },
		"batch-jobs": func(seed int64) []byte { return encodeJobs(t, seed) },
	}
	for name, gen := range gens {
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		// Four jobs have 24 orders, so a single other seed may repeat one.
		differs := false
		for seed := int64(8); seed < 12; seed++ {
			differs = differs || !bytes.Equal(gen(7), gen(seed))
		}
		if !differs {
			t.Errorf("%s: seeds 8..11 all gave seed 7's stream", name)
		}
	}
}

func TestColdEmbedNeverRepeatsAPair(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st := ColdEmbed(seed, 20)
		seen := map[string]Request{}
		for _, r := range st.All() {
			_, _, canon, err := parseReq(r)
			if err != nil {
				t.Fatal(err)
			}
			k := r.Family + "|" + canon.String()
			if prev, ok := seen[k]; ok {
				t.Fatalf("seed %d: %s %s repeats %s %s", seed, r.Kind, r.Shape, prev.Kind, prev.Shape)
			}
			seen[k] = r
		}
		if len(st.Capacity) == 0 || len(st.Latency) == 0 {
			t.Fatalf("seed %d: empty phase", seed)
		}
	}
}

func TestHotMixPoolCoversFamiliesAndFitsTheLRU(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		st := HotMix(seed, 4)
		fams := map[string]bool{}
		keys := map[string]bool{}
		warm := map[Request]bool{}
		for _, r := range st.Warmup {
			warm[Request{Kind: r.Kind, Family: r.Family, Shape: r.Shape}] = true
		}
		for _, r := range st.All() {
			fams[r.Family] = true
			_, _, canon, err := parseReq(r)
			if err != nil {
				t.Fatal(err)
			}
			// The server's result-cache keys: plans in the requested axis
			// order, embeds and compares in canonical order.
			if r.Kind == "plan" {
				keys["plan|"+r.Family+"|"+r.Shape] = true
			} else {
				keys[r.Kind+"|"+r.Family+"|"+canon.String()] = true
			}
			if !warm[Request{Kind: r.Kind, Family: r.Family, Shape: r.Shape}] {
				t.Fatalf("seed %d: %s %s %s is not warmed up", seed, r.Kind, r.Family, r.Shape)
			}
		}
		for _, f := range guest.All() {
			if !fams[f.Family.String()] {
				t.Errorf("seed %d: pool has no %s shape", seed, f.Family)
			}
		}
		if len(keys) > defaultLRU/2 {
			t.Errorf("seed %d: %d distinct cache keys, not well inside the %d-entry LRU", seed, len(keys), defaultLRU)
		}
	}
}
