// Spa-breakdown: dissect one workload's CXL slowdown into its sources
// (DRAM, cache levels, store buffer, core) using the paper's 9-counter
// differential analysis, then show how it evolves over execution
// periods (§5.4-5.6).
package main

import (
	"context"
	"fmt"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/spa"
	"github.com/moatlab/melody/internal/workload"
)

func main() {
	melody.RegisterWorkloads()
	emr := platform.EMR2S()
	spec, _ := workload.ByName("602.gcc_s")

	run := melody.NewRunner(emr)
	run.Cadence = core.EveryNs(2_000) // sample counters every 2000 simulated ns

	ctx := context.Background()
	base, _ := run.RunCtx(ctx, melody.RunRequest{Spec: spec, Config: melody.Local(emr)})
	tgt, _ := run.RunCtx(ctx, melody.RunRequest{Spec: spec, Config: melody.CXL(emr, cxl.ProfileB())})

	b := spa.Analyze(base.Delta, tgt.Delta)
	fmt.Printf("%s on CXL-B: %s\n", spec.Name, b)
	fmt.Printf("estimators: ds %.1f%%  backend %.1f%%  memory %.1f%%  (actual %.1f%%)\n\n",
		b.EstTotal*100, b.EstBackend*100, b.EstMemory*100, b.Actual*100)

	fmt.Println("period-based breakdown (100k-instruction periods):")
	for _, p := range spa.AnalyzePeriods(base.Samples, tgt.Samples, 100_000) {
		bar := ""
		for i := 0.0; i < p.Actual*50; i++ {
			bar += "#"
		}
		fmt.Printf("  @%8d %6.1f%%  %s\n", p.StartInstr, p.Actual*100, bar)
	}
	fmt.Println("\ngcc's phase structure shows through: the heavy phases dominate the average")
}
