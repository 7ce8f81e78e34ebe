package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"disqo"
	"disqo/internal/types"
)

// expect is what a statement must return: the row count and an
// order-insensitive fingerprint of the rows (for DML, the affected-row
// count and a zero fingerprint).
type expect struct {
	Rows int    `json:"rows"`
	FP   uint64 `json:"fp,string"`
}

// outcome is what a statement did return.
type outcome struct {
	rows     [][]disqo.Value
	affected int
	write    bool
}

func (o outcome) expect() expect {
	if o.write {
		return expect{Rows: o.affected}
	}
	return expect{Rows: len(o.rows), FP: fingerprint(o.rows)}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fingerprint hashes a bag of rows independently of their order: each row
// is hashed with FNV-1a over a kind-tagged encoding of its values, the row
// hash is scrambled, and the scrambled hashes are summed, so duplicates
// count and permutations do not. It reads values only through their public
// accessors; the engine's own hash functions play no part in the check.
func fingerprint(rows [][]disqo.Value) uint64 {
	var sum uint64
	for _, row := range rows {
		h := uint64(fnvOffset)
		mix := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
		mix64 := func(x uint64) {
			for i := 0; i < 8; i++ {
				mix(byte(x >> (8 * i)))
			}
		}
		for _, v := range row {
			mix(byte(v.Kind()))
			switch v.Kind() {
			case types.KindInt:
				mix64(uint64(v.Int()))
			case types.KindFloat:
				mix64(math.Float64bits(v.Float()))
			case types.KindString:
				s := v.Str()
				mix64(uint64(len(s)))
				for i := 0; i < len(s); i++ {
					mix(s[i])
				}
			case types.KindBool:
				if v.Bool() {
					mix(1)
				} else {
					mix(0)
				}
			}
		}
		// splitmix64 finalizer: keeps sums of similar rows apart.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		sum += h
	}
	return sum
}

// combine folds the expectations of all of a class's statements, in cycle
// order, into the one value the pinned files hold per class.
func combine(es []expect) expect {
	out := expect{FP: fnvOffset}
	for _, e := range es {
		out.Rows += e.Rows
		out.FP = (out.FP ^ e.FP) * fnvPrime
		out.FP = (out.FP ^ uint64(e.Rows)) * fnvPrime
	}
	return out
}

// pinned is the content of expected/seed-N.json.
type pinned struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]expect `json:"workloads"`
}

//go:embed expected/*.json
var pinnedFiles embed.FS

func pinnedName(seed uint64) string { return fmt.Sprintf("expected/seed-%d.json", seed) }

// loadPinned returns the pinned expectations for a seed, or nil when the
// seed has none (any seed but the pinned ones).
func loadPinned(seed uint64) (*pinned, error) {
	data, err := pinnedFiles.ReadFile(pinnedName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var p pinned
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", pinnedName(seed), err)
	}
	return &p, nil
}

// savePinned writes a seed's file under dir, the benchmark's source
// directory; the next build embeds it.
func savePinned(dir string, p *pinned) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, pinnedName(p.Seed)), append(data, '\n'), 0o644)
}
