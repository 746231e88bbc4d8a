package window

// Pool recycles window operator state across simulation runs: every
// deployment's engine arena (engine.Mem) holds a Pool, and Deploy draws
// reset-but-grown operators from it instead of allocating fresh tables
// and slabs.  One run deploys at most one operator of each kind, so the
// pool caches exactly one instance per kind.
type Pool struct {
	inc  *IncrementalAggregator
	pane *PaneAggregator
	buf  *BufferedWindows
	two  *TwoStreamBuffer
}

// Incremental returns a reset IncrementalAggregator over asg.
func (p *Pool) Incremental(asg Assigner) *IncrementalAggregator {
	if p.inc == nil {
		p.inc = NewIncrementalAggregator(asg)
	} else {
		p.inc.Reset(asg)
	}
	return p.inc
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

// Buffered returns a reset BufferedWindows over asg.
func (p *Pool) Buffered(asg Assigner) *BufferedWindows {
	if p.buf == nil {
		p.buf = NewBufferedWindows(asg)
	} else {
		p.buf.Reset(asg)
	}
	return p.buf
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
