package storage

import (
	"math/rand"
	"testing"
)

// TestChainsProperty drives one chain set through a random push / pop /
// truncate history beside a naive model — per key, the slice of versions
// ever pushed and not popped or cut — and checks that at(ts) agrees with
// the model for every timestamp at or above the horizon, and that the
// chains hold exactly the versions still reachable from there: stats and
// the reclaim count say so, and wholly dead chains are gone.
func TestChainsProperty(t *testing.T) {
	type ver struct {
		val  int
		ts   uint64
		dead bool
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := make(chains[int, int])
		model := make(map[int][]ver)
		var ts, horizon uint64 = 1, 0
		for step := 0; step < 80; step++ {
			k := rng.Intn(4)
			switch r := rng.Intn(10); {
			case r < 6: // a commit pushes one version…
				ts++
				v := ver{val: rng.Intn(100), ts: ts, dead: rng.Intn(4) == 0}
				old := m.push(k, v.val, v.ts, v.dead)
				if rng.Intn(5) == 0 { // …and a failed one pops it again
					m.pop(k, old)
					break
				}
				model[k] = append(model[k], v)
			case r < 8 && horizon < ts: // vacuum at a horizon that only moves forward
				horizon += uint64(rng.Int63n(int64(ts-horizon))) + 1
				before := 0
				for _, vs := range model {
					before += len(vs)
				}
				after := 0
				for k, vs := range model {
					anchor := -1
					for i, v := range vs {
						if v.ts <= horizon {
							anchor = i
						}
					}
					if anchor >= 0 {
						vs = vs[anchor:]
					}
					if len(vs) == 1 && anchor >= 0 && vs[0].dead {
						vs = nil
						delete(model, k)
					} else {
						model[k] = vs
					}
					after += len(vs)
				}
				if reclaimed, _ := m.truncate(horizon); reclaimed != before-after {
					t.Fatalf("seed %d step %d: truncate(%d) reclaimed %d, model %d", seed, step, horizon, reclaimed, before-after)
				}
			}
			n, nodes, longest := m.pressure()
			wantNodes, wantLongest := 0, 0
			for _, vs := range model {
				wantNodes += len(vs)
				wantLongest = max(wantLongest, len(vs))
			}
			if n != len(model) || nodes != wantNodes || longest != wantLongest {
				t.Fatalf("seed %d step %d: pressure = %d/%d/%d, model %d/%d/%d", seed, step, n, nodes, longest, len(model), wantNodes, wantLongest)
			}
			for k := 0; k < 4; k++ {
				for at := max(horizon, 1); at <= ts+1; at++ {
					var want ver
					for _, v := range model[k] {
						if v.ts <= at {
							want = v
						}
					}
					got, ok := m[k].at(at)
					if wantOK := want.ts != 0 && !want.dead; ok != wantOK || ok && got != want.val {
						t.Fatalf("seed %d step %d: key %d at(%d) = %d, %v; model %+v", seed, step, k, at, got, ok, want)
					}
				}
			}
		}
	}
}
