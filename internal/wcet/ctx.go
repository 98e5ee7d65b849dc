package wcet

import (
	"context"

	"repro/internal/obs"
)

// AnalyzeCtx is Analyze with the caller's context threaded in, recording
// the incremental analysis as an "ipet" span under the context's trace
// (carrying its request id). Bit-identical to Analyze.
func (c *Engine) AnalyzeCtx(ctx context.Context, cacheSize, spmSize uint32, inSPM map[string]bool, witness bool) (*Result, error) {
	attrs := []obs.Attr{obs.A("mode", "incremental"), obs.A("spm", spmSize)}
	if c.shape != nil {
		attrs = []obs.Attr{obs.A("mode", "cache-incremental"), obs.A("cache", cacheSize), obs.A("spm", spmSize)}
	}
	_, sp := obs.Start(ctx, "ipet", attrs...)
	defer sp.End()
	res, err := c.Analyze(cacheSize, spmSize, inSPM, witness)
	if err == nil {
		sp.SetAttr("wcet", res.WCET)
	}
	return res, err
}
