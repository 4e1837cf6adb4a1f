package diffrun

import (
	"fmt"
	"testing"

	"rcpn/internal/bpred"
	"rcpn/internal/machine"
	"rcpn/internal/mem"
)

// TestUnitsFilledOneAtATime builds every engine with units under each of
// the seven non-empty subsets of {I cache, D cache, predictor} overridden,
// and reads the units back from a drained checkpoint: each overridden unit
// must hold the override and each unset one the row's own default, as the
// row's Units fills it for a warm leader. The override geometries differ
// from every model's defaults.
func TestUnitsFilledOneAtATime(t *testing.T) {
	p := crcProgram(t)
	for _, e := range Engines() {
		if e.Functional() {
			continue
		}
		var def machine.Config
		e.Units(&def)
		for mask := 1; mask < 8; mask++ {
			var cfg Config
			if mask&1 != 0 {
				cfg.Caches.I = mem.MustCache(mem.CacheConfig{Name: "icache", Sets: 4, Ways: 1, LineBytes: 32, HitLatency: 1, MissLatency: 24})
			}
			if mask&2 != 0 {
				cfg.Caches.D = mem.MustCache(mem.CacheConfig{Name: "dcache", Sets: 1, Ways: 2, LineBytes: 32, HitLatency: 1, MissLatency: 24})
			}
			if mask&4 != 0 {
				cfg.Predictor = bpred.NewBimodal(64)
			}
			wantI, wantD, wantPred := def.Caches.I, def.Caches.D, def.Predictor
			if cfg.Caches.I != nil {
				wantI = cfg.Caches.I
			}
			if cfg.Caches.D != nil {
				wantD = cfg.Caches.D
			}
			if cfg.Predictor != nil {
				wantPred = cfg.Predictor
			}
			t.Run(fmt.Sprintf("%s/%03b", e.Name, mask), func(t *testing.T) {
				st, _, err := e.New(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := st.StepToRetired(2000, 1<<40); err != nil {
					t.Fatal(err)
				}
				if err := st.DrainBoundary(); err != nil {
					t.Fatal(err)
				}
				ck, err := st.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range []struct {
					got  *mem.CacheState
					want *mem.Cache
				}{{ck.ICache, wantI}, {ck.DCache, wantD}} {
					if w := u.want.Config(); u.got == nil || len(u.got.Tags) != w.Sets*w.Ways {
						t.Errorf("%s: %s, want %d entries", w.Name, entries(u.got), w.Sets*w.Ways)
					}
				}
				snap := wantPred.(bpred.Snapshotter).Snapshot()
				if g, w := predictor(ck.Pred), predictor(&snap); g != w {
					t.Errorf("predictor %s, want %s", g, w)
				}
			})
		}
	}
}

func entries(st *mem.CacheState) string {
	if st == nil {
		return "no cache"
	}
	return fmt.Sprintf("%d entries", len(st.Tags))
}

func predictor(st *bpred.State) string {
	if st == nil {
		return "none"
	}
	return fmt.Sprintf("%s/%d", st.Kind, len(st.Counter))
}
