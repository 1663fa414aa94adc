package core

import (
	"testing"

	"nuevomatch/internal/classbench"
)

// TestConformanceMatrix sweeps every ClassBench application profile through
// both update-capable remainder backends — tuplemerge and rvh — in two
// lifecycle modes (freshly built, 20% churned), plus a
// churn-with-autopilot-retraining mode on the default backend. Each cell
// asserts that every lookup path (scalar, batch, parallel) agrees exactly
// with the linear reference, and that BuildStats records the backend that
// actually serves. Under -short the sweep is pruned to one profile per
// application family.
func TestConformanceMatrix(t *testing.T) {
	profiles := classbench.Profiles()
	backends := updateBackends
	size, pool, probes := 240, 400, 300
	if testing.Short() {
		// One profile per family: acl1, fw1, ipc1.
		profiles = []classbench.Profile{profiles[0], profiles[5], profiles[10]}
		size, pool, probes = 150, 240, 150
	}
	for pi, prof := range profiles {
		for _, backend := range backends {
			for _, mode := range []string{"static", "churn"} {
				t.Run(prof.Name+"/"+backend+"/"+mode, func(t *testing.T) {
					opts := fastOpts()
					opts.Remainder = registeredRemainder(t, backend)
					d := newChurnDriver(t, prof, size, pool, opts, 100+int64(pi))
					st := d.e.Stats()
					if st.RemainderBackend != backend {
						t.Fatalf("BuildStats.RemainderBackend = %q, want %q", st.RemainderBackend, backend)
					}
					if mode == "churn" {
						// Churn 20% of the rule count in interleaved
						// inserts/deletes (lookups verified throughout).
						for d.inserts+d.deletes < 2*size/5 {
							d.step()
						}
					}
					d.verifySweep(probes)
				})
			}
		}

		// Churn with autopilot-driven retraining, on the default backend:
		// the retrain must preserve conformance across the hot swap and
		// keep absorbing updates afterwards.
		t.Run(prof.Name+"/churn+retrain", func(t *testing.T) {
			d := newChurnDriver(t, prof, size, pool, fastOpts(), 100+int64(pi))
			ap := NewAutopilot(d.e, AutopilotPolicy{
				MaxUpdates:   size / 5,
				MinLiveRules: 1,
			})
			for d.inserts+d.deletes < 2*size/5 {
				d.step()
				if d.ops%50 == 0 {
					if _, err := ap.Check(); err != nil {
						t.Fatalf("autopilot check: %v", err)
					}
				}
			}
			if _, err := ap.Check(); err != nil {
				t.Fatalf("final autopilot check: %v", err)
			}
			if st := ap.Stats(); st.Retrains < 1 {
				t.Fatalf("autopilot never retrained under 20%% churn: %+v", st)
			}
			// Keep churning after the swap: the retrained engine must
			// absorb further updates correctly.
			for n := d.inserts + d.deletes; d.inserts+d.deletes < n+size/10; {
				d.step()
			}
			d.verifySweep(probes)
		})
	}
}
