package dist

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// chaosFleet wraps every coordinator-side connection of a pipe fleet with
// a seeded fault plan (seed varied per worker so faults de-correlate).
func chaosFleet(t *testing.T, ctx context.Context, n int, plan ChaosPlan) *fleet {
	t.Helper()
	fl := pipeFleet(t, ctx, n)
	for i, c := range fl.conns {
		p := plan
		p.Seed += int64(i * 101)
		fl.conns[i] = Chaos(c, p)
	}
	return fl
}

// TestDistributedFitChaosTransport pins fault-recovery determinism: with
// dropped (transiently failing), duplicated, and delayed partial frames on
// every worker connection, the fit recovers below the merge — retries
// re-deliver dropped partials, duplicates drop by partition index — and
// selects bit-identically to the clean local fit, with the absorbed
// retries visible in Stats.Retries.
func TestDistributedFitChaosTransport(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	chunkRows := (rows + parts - 1) / parts
	for _, tc := range taskCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			train := taskWorkload(t, rows, dim, tc)
			cfg := core.DefaultConfig()
			cfg.Task = tc.task
			cfg.Seed = 1
			shardFP := localFingerprint(t, train, cfg, chunkRows)
			spec := writeSource(t, train, SourceColstore, chunkRows)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			fl := chaosFleet(t, ctx, 2, ChaosPlan{
				Seed:      7,
				DropRate:  0.15,
				DupRate:   0.10,
				DelayRate: 0.20,
				MaxDelay:  500 * time.Microsecond,
			})
			p, st := distFit(t, ctx, spec, fl.conns, cfg)
			cancel()
			fl.wait()
			if fp := fingerprint(p); fp != shardFP {
				t.Fatalf("chaotic fit diverged from clean local fit:\n got: %s\nwant: %s", fp, shardFP)
			}
			if st.Retries == 0 {
				t.Fatal("chaos plan with 15% drop rate absorbed zero transport retries; faults not exercised")
			}
		})
	}
}

// TestDistributedFitWorkerKill pins mid-fit reassignment: one of two
// workers' connections dies permanently partway through the fit (after the
// partition count is known), the coordinator hands its unfolded partitions
// to the survivor, and the selection fingerprint still matches the local
// fit exactly.
func TestDistributedFitWorkerKill(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	chunkRows := (rows + parts - 1) / parts
	tc := taskCases()[0] // binary
	train := taskWorkload(t, rows, dim, tc)
	cfg := core.DefaultConfig()
	cfg.Task = tc.task
	cfg.Seed = 1
	shardFP := localFingerprint(t, train, cfg, chunkRows)
	spec := writeSource(t, train, SourceColstore, chunkRows)

	// Kill at several depths: right after the first pass's results (frame 8
	// is past handshake + setLive + pass-1 partials) and deeper into the
	// candidate passes. Every depth must recover to the same selection.
	// (A full clean fit at this scale delivers 19 frames per worker: three
	// acks of set-up, five passes of two partials and a passDone, and the ack
	// of the round's live set.)
	for _, killAfter := range []int{8, 15, 17} {
		ctx, cancel := context.WithCancel(context.Background())
		fl := pipeFleet(t, ctx, 2)
		fl.conns[1] = Chaos(fl.conns[1], ChaosPlan{Seed: 3, KillAfter: killAfter})

		coord := NewCoordinator(spec, fl.conns...)
		src := openLocal(t, spec)
		p, _, _, err := shard.Fit(ctx, src, shard.Config{Core: cfg, Exec: coord})
		if err != nil {
			t.Fatalf("killAfter=%d: fit did not recover: %v", killAfter, err)
		}
		if coord.Workers() != 1 {
			t.Fatalf("killAfter=%d: %d workers alive after the kill, want 1", killAfter, coord.Workers())
		}
		coord.Close()
		cancel()
		fl.wait()
		if fp := fingerprint(p); fp != shardFP {
			t.Fatalf("killAfter=%d: recovered fit diverged:\n got: %s\nwant: %s", killAfter, fp, shardFP)
		}
	}
}

// TestDistributedFitAllWorkersLost pins the abort path: when every worker
// dies mid-fit there is no survivor to reassign to, and the fit must fail
// with a positioned error instead of hanging or selecting garbage.
func TestDistributedFitAllWorkersLost(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	chunkRows := (rows + parts - 1) / parts
	tc := taskCases()[0]
	train := taskWorkload(t, rows, dim, tc)
	cfg := core.DefaultConfig()
	cfg.Task = tc.task
	cfg.Seed = 1
	spec := writeSource(t, train, SourceColstore, chunkRows)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fl := pipeFleet(t, ctx, 2)
	fl.conns[0] = Chaos(fl.conns[0], ChaosPlan{Seed: 1, KillAfter: 9})
	fl.conns[1] = Chaos(fl.conns[1], ChaosPlan{Seed: 2, KillAfter: 11})

	coord := NewCoordinator(spec, fl.conns...)
	src := openLocal(t, spec)
	_, _, _, err := shard.Fit(ctx, src, shard.Config{Core: cfg, Exec: coord})
	if err == nil {
		t.Fatal("fit succeeded with every worker dead")
	}
	coord.Close()
	cancel()
	fl.wait()
}
