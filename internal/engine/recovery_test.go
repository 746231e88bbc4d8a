package engine_test

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/flink"
	"repro/internal/engine/ideal"
	"repro/internal/engine/spark"
	"repro/internal/engine/storm"
	"repro/internal/fault"
)

// TestPerEngineRecoveryModels pins that all four engine models expose a
// recovery cost model and that, for a representative outage, the restore
// costs order the way the paper's §5 architecture discussion predicts:
// checkpoint restore (Flink) pays the most for a short outage (fixed
// reload + half a checkpoint interval), record replay (Storm) and lineage
// recompute (Spark) scale with the outage, and the ideal engine is free.
func TestPerEngineRecoveryModels(t *testing.T) {
	models := map[string]engine.Engine{
		"flink": flink.New(flink.Options{}),
		"spark": spark.New(spark.Options{}),
		"storm": storm.New(storm.Options{}),
		"ideal": ideal.New(),
	}
	wantKind := map[string]string{
		"flink": fault.RecoveryCheckpoint,
		"spark": fault.RecoveryLineage,
		"storm": fault.RecoveryReplay,
		"ideal": fault.RecoveryInstant,
	}
	down := 5 * time.Second
	restore := map[string]time.Duration{}
	for name, m := range models {
		rec := m.Recovery()
		if rec.Kind != wantKind[name] {
			t.Errorf("%s recovery kind = %q, want %q", name, rec.Kind, wantKind[name])
		}
		restore[name] = rec.Restore(down)
	}
	if !(restore["flink"] > restore["storm"] && restore["storm"] > restore["spark"] &&
		restore["spark"] > restore["ideal"] && restore["ideal"] == 0) {
		t.Fatalf("restore costs for a %v outage = %v, want flink > storm > spark > ideal = 0", down, restore)
	}
	// Flink's restore cost follows its checkpoint interval: checkpointing
	// twice as often halves the expected reprocessing.
	tight := flink.New(flink.Options{CheckpointInterval: 5 * time.Second}).Recovery()
	loose := flink.New(flink.Options{CheckpointInterval: 20 * time.Second}).Recovery()
	if tight.Restore(down) >= loose.Restore(down) {
		t.Fatalf("tighter checkpoints should restore faster: %v vs %v", tight.Restore(down), loose.Restore(down))
	}
}
