// Package tuple defines the event model shared by the benchmark driver and
// the engine models: the PURCHASES and ADS records of the paper's Listing 1,
// the generic stream Event that carries them, and the Output type emitted by
// SUT sinks, whose event-/processing-time provenance implements the paper's
// Definitions 3 and 4 (a windowed output's event-time is the maximum
// event-time of all contributing inputs, and likewise for processing-time).
package tuple

import (
	"fmt"
	"time"
)

// StreamID identifies which of the two workload streams an event belongs to.
type StreamID uint8

const (
	// Purchases is the PURCHASES(userID, gemPackID, price, time) stream.
	Purchases StreamID = iota
	// Ads is the ADS(userID, gemPackID, time) stream.
	Ads
)

// String returns the paper's name for the stream.
func (s StreamID) String() string {
	switch s {
	case Purchases:
		return "PURCHASES"
	case Ads:
		return "ADS"
	default:
		return "UNKNOWN"
	}
}

// Event is one record flowing from the data generator through a driver
// queue into the SUT.  Times are virtual (durations since simulation epoch).
//
// EventTime is stamped by the generator at creation (the paper's "moment of
// data production at the source").  IngestTime is stamped by the SUT's
// source operator when the event is pulled from the driver queue; it is the
// basis of processing-time latency (Definition 2) and is zero until
// ingestion.
type Event struct {
	Stream    StreamID
	UserID    int64
	GemPackID int64
	// Price is the purchase price in cents; zero for ADS events.
	Price      int64
	EventTime  time.Duration
	IngestTime time.Duration
	// Weight is how many real-world events this simulated event stands
	// for.  The driver runs scaled simulations (see driver.Config
	// .EventsPerTuple); all throughput accounting multiplies by Weight so
	// reported rates are in real events/second.
	Weight int64
}

// WireSizeBytes is the modelled serialized size of one real event on the
// network, used by the cluster's bandwidth accounting.  ~100 bytes matches
// a compact binary encoding of the PURCHASES schema and makes a 1 Gb/s
// fabric saturate at ~1.2M events/s, which is exactly the network bound the
// paper reports for Flink.
const WireSizeBytes = 100

// KeyDomain bounds the gemPackID field: generated keys lie in
// [0, KeyDomain).  The paper groups by 1,000 gem packs; the bound leaves
// room for any spec while letting per-key state (hot-key counts, pane
// partials) live in slices indexed by key instead of hash tables.
// generator.Config.Validate enforces it for every distribution the
// generator defines, and the draw tape checks any other as it draws.
const KeyDomain = 1 << 16

// GrowToKey extends a slice indexed by gemPackID with zero values so that
// it covers key.  It panics on a key outside [0, KeyDomain), naming it.
func GrowToKey[T any](s []T, key int64) []T {
	if key < 0 || key >= KeyDomain {
		panic(fmt.Sprintf("tuple: key %d outside [0, %d)", key, KeyDomain))
	}
	return append(s, make([]T, int(key)+1-len(s))...)
}

// Key returns the grouping key for the aggregation query (GROUP BY
// gemPackID).
func (e *Event) Key() int64 { return e.GemPackID }

// JoinKey returns the equi-join key for the join query
// (p.userID = a.userID AND p.gemPackID = a.gemPackID), packed into one
// int64.  UserID and GemPackID are both generated well below 2^31 so the
// packing is collision-free.
func (e *Event) JoinKey() int64 { return e.UserID<<32 | (e.GemPackID & 0xffffffff) }

// Output is a result tuple emitted by the SUT's sink operator.
//
// EventTime and ProcTime carry the maximum event-time and maximum
// processing-time (ingestion time) over every input that contributed to
// this output, per Definitions 3 and 4 of the paper.  EmitTime is when the
// sink emitted the tuple.  The driver derives:
//
//	event-time latency      = EmitTime - EventTime   (Definition 1)
//	processing-time latency = EmitTime - ProcTime    (Definition 2)
type Output struct {
	Key   int64
	Value int64
	// Count is the number of simulated input events that contributed.
	Count int64
	// Weight is the total real-event weight of contributing inputs.
	Weight    int64
	EventTime time.Duration
	ProcTime  time.Duration
	EmitTime  time.Duration
	// WindowEnd identifies the window that produced this output (end of
	// the window in event time); used by correctness checks.
	WindowEnd time.Duration
}

// EventTimeLatency returns EmitTime - EventTime (Definition 1).
func (o *Output) EventTimeLatency() time.Duration { return o.EmitTime - o.EventTime }

// ProcTimeLatency returns EmitTime - ProcTime (Definition 2).
func (o *Output) ProcTimeLatency() time.Duration { return o.EmitTime - o.ProcTime }

// Provenance accumulates the max-event-time / max-processing-time
// provenance of a windowed result while inputs stream in.  The zero value
// is ready to use.
type Provenance struct {
	MaxEventTime time.Duration
	MaxProcTime  time.Duration
}

// Observe folds one contributing input event into the provenance.
func (p *Provenance) Observe(e *Event) {
	if e.EventTime > p.MaxEventTime {
		p.MaxEventTime = e.EventTime
	}
	if e.IngestTime > p.MaxProcTime {
		p.MaxProcTime = e.IngestTime
	}
}

// Merge folds another provenance (e.g. the other side of a join) into p.
func (p *Provenance) Merge(q Provenance) {
	if q.MaxEventTime > p.MaxEventTime {
		p.MaxEventTime = q.MaxEventTime
	}
	if q.MaxProcTime > p.MaxProcTime {
		p.MaxProcTime = q.MaxProcTime
	}
}
