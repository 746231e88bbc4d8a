package window

// Pool recycles window operator state across simulation runs: every
// deployment's engine arena (engine.Mem) holds a Pool, and Deploy draws
// reset-but-grown operators from it instead of allocating fresh tables
// and slabs.  One run deploys at most one operator of each kind — the
// aggregation's panes or the join's two-stream buffer — so the pool
// caches exactly one instance per kind.
type Pool struct {
	pane *PaneAggregator
	two  *TwoStreamBuffer
}

// Pane returns a reset PaneAggregator over asg.
func (p *Pool) Pane(asg Assigner) *PaneAggregator {
	if p.pane == nil {
		p.pane = NewPaneAggregator(asg)
	} else {
		p.pane.Reset(asg)
	}
	return p.pane
}

// TwoStream returns a reset TwoStreamBuffer over asg.
func (p *Pool) TwoStream(asg Assigner) *TwoStreamBuffer {
	if p.two == nil {
		p.two = NewTwoStreamBuffer(asg)
	} else {
		p.two.Reset(asg)
	}
	return p.two
}
