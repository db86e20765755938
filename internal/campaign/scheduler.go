package campaign

import "sort"

// rungCost orders rungs by how expensive their precision level was to reach:
// inputs backed by a full validity proof are the highest-value seeds, "seed"
// entries (the workload's original corpus) rank last among equals.
func rungCost(rung string) int {
	switch rung {
	case "proof":
		return 0
	case "qf":
		return 1
	case "concretize":
		return 2
	case "seed":
		return 3
	default:
		return 4
	}
}

// Schedule ranks corpus entries for seeding a fresh session. The order is
// fully deterministic:
//
//  1. bug-triggering inputs first (they reproduce known failures cheaply),
//  2. cheaper rung first — a proof-backed input came from the precise end of
//     the ladder and tends to sit deeper in the program,
//  3. more coverage gained first (novelty),
//  4. earlier discovery run first (past proof cost: earlier inputs were
//     reached with less cumulative solver work),
//  5. content address as the final tie-break.
//
// Scheduling applies only to fresh corpus-seeded sessions. A checkpoint
// resume never reorders anything: its frontier is restored verbatim so the
// resumed trajectory stays bit-identical to the uninterrupted one.
func Schedule(entries []*Entry) []*Entry {
	out := append([]*Entry(nil), entries...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Bug != b.Bug {
			return a.Bug
		}
		if ca, cb := rungCost(a.Rung), rungCost(b.Rung); ca != cb {
			return ca < cb
		}
		if a.Gained != b.Gained {
			return a.Gained > b.Gained
		}
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		return a.Hash < b.Hash
	})
	return out
}

// SeedInputs returns every corpus input, ranked, for seeding a fresh
// session. The corpus already contains the workload seeds once a first
// session committed.
func (c *Campaign) SeedInputs() [][]int64 {
	ranked := Schedule(c.Entries())
	out := make([][]int64, 0, len(ranked))
	for _, e := range ranked {
		out = append(out, append([]int64(nil), e.Input...))
	}
	return out
}
