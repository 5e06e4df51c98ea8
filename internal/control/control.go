// Package control is the self-tuning control plane for the async VM
// pipelines: a small feedback-controller framework (AIMD and banded
// hill-climb style) plus the standard controller set UVM wires to its
// knobs — pageout/writeback window depth, pagein-cluster and lookahead
// width, and the pagedaemon watermarks.
//
// Every knob PRs 2–5 introduced is a static constant, and the best
// setting for the 1997 disk is wrong for nvme and wrong again under
// bursty traffic. The controllers close the loop from the counters the
// system already emits: deepen a window while per-completion disk
// latency stays flat and back off when it inflates; widen clustering
// while the hit rates pay off and shrink when neighbours miss; raise
// the watermarks while allocators stall and decay them after sustained
// calm.
//
// Determinism: the framework is pure state-machine arithmetic — no
// wall-clock, no randomness, no goroutines. Controllers advance only
// when Step is called with an observation, and the Plane advances only
// when its caller ticks it with a simulated-clock timestamp, so a
// scripted observation trace always produces the same decision
// sequence (the step-response test harness depends on exactly this).
// Whether a live run is deterministic is the caller's affair: UVM only
// engages the plane behind uvm.Config.AutoTune, which is off for
// every paper experiment.
package control

// Decision is a controller's verdict for one epoch: what actually
// happened to its setting.
type Decision int8

// The three possible step outcomes. Grow and Shrink report a real value
// change; a controller already pinned at a bound reports Hold.
const (
	Shrink Decision = -1
	Hold   Decision = 0
	Grow   Decision = 1
)

// String names the decision for counters and test output.
func (d Decision) String() string {
	switch d {
	case Shrink:
		return "shrink"
	case Grow:
		return "grow"
	default:
		return "hold"
	}
}

// Sample is one epoch's observation: the metric the controller steers by
// and the weight of evidence behind it (completions, clusters, faults —
// whatever the sampler counted this epoch). Weight 0 means "no data";
// every controller holds rather than steering on silence.
type Sample struct {
	Metric float64
	Weight float64
}

// Controller is one knob's feedback loop: Step consumes an epoch's
// observation and moves the setting, and Value is the current setting.
type Controller interface {
	// Name identifies the controller in counters and reports.
	Name() string
	// Value returns the current setting.
	Value() int
	// Step advances one epoch and reports what happened to the setting.
	Step(s Sample) Decision
}

// mutInvertBackoff, when set, inverts every controller's backoff rule —
// it grows where it would shrink and shrinks where it would grow. Test
// hook only: the step-response suite flips it to prove its assertions
// catch a broken rule (mutation verification). Never set outside tests.
var mutInvertBackoff bool

// invertIfMutated applies the mutation hook to a tentative decision.
func invertIfMutated(d Decision) Decision {
	if mutInvertBackoff {
		switch d {
		case Grow:
			return Shrink
		case Shrink:
			return Grow
		}
	}
	return d
}

// knob is the bounded integer setting every controller steers, with the
// shared additive-increase / multiplicative-decrease movement rules.
type knob struct {
	name     string
	min, max int
	inc      int
	value    int
}

func newKnob(name string, min, max, start, inc int) knob {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if start < min {
		start = min
	}
	if start > max {
		start = max
	}
	if inc < 1 {
		inc = 1
	}
	return knob{name: name, min: min, max: max, inc: inc, value: start}
}

// move applies the decided direction with clamping and reports what
// actually happened: a decision that cannot move a pinned value
// degrades to Hold, which is what lets a flat trace converge to a
// stable setting with no oscillation.
func (k *knob) move(d Decision) Decision {
	switch d {
	case Grow:
		nv := k.value + k.inc
		if nv > k.max {
			nv = k.max
		}
		if nv == k.value {
			return Hold
		}
		k.value = nv
		return Grow
	case Shrink:
		nv := k.value / 2
		if nv < k.min {
			nv = k.min
		}
		if nv == k.value {
			return Hold
		}
		k.value = nv
		return Shrink
	}
	return Hold
}

// AIMD steers a knob by a lower-is-better metric (per-completion disk
// latency): additive growth while the metric stays within Tolerance of
// the best level seen, multiplicative backoff — and a one-epoch cooldown
// before probing again — when it inflates. After a backoff the inflated
// level becomes the new baseline, so a disk that has genuinely slowed
// re-anchors instead of shrinking to the floor.
type AIMD struct {
	knob
	tolerance float64

	base     float64
	haveBase bool
	cool     int
}

// NewAIMD builds an AIMD controller over [min, max] starting at start,
// growing by inc per calm epoch and backing off (halving) when the
// metric exceeds the baseline by more than tolerance (relative, e.g.
// 0.25 = +25%).
func NewAIMD(name string, min, max, start, inc int, tolerance float64) *AIMD {
	return &AIMD{knob: newKnob(name, min, max, start, inc), tolerance: tolerance}
}

// Name implements Controller.
func (c *AIMD) Name() string { return c.name }

// Value implements Controller.
func (c *AIMD) Value() int { return c.value }

// Step implements Controller: anchor on the first observation, then
// grow while flat, back off (and re-anchor) on inflation.
func (c *AIMD) Step(s Sample) Decision {
	if s.Weight <= 0 {
		return Hold
	}
	if !c.haveBase {
		c.base, c.haveBase = s.Metric, true
		return Hold
	}
	var d Decision
	switch {
	case s.Metric > c.base*(1+c.tolerance):
		d = Shrink
	case c.cool > 0:
		c.cool--
		d = Hold
	default:
		d = Grow
	}
	if s.Metric < c.base {
		c.base = s.Metric
	}
	d = invertIfMutated(d)
	if d == Shrink {
		// The inflated level is the new normal; probe again only after a
		// calm epoch.
		c.base = s.Metric
		c.cool = 1
	}
	return c.move(d)
}

// Band steers a knob by a banded metric with hysteresis: grow while the
// metric is at or above GrowAt (the payoff — hit rate, stall pressure —
// justifies more), shrink (halve) only after ShrinkAfter consecutive
// epochs at or below ShrinkAt, and hold in the dead band between. The
// gap between the two thresholds is what prevents oscillation around a
// single cut-off.
type Band struct {
	knob
	growAt, shrinkAt float64
	shrinkAfter      int

	below int
}

// NewBand builds a banded controller over [min, max] starting at start,
// growing by inc while the metric >= growAt and halving after
// shrinkAfter consecutive epochs with the metric <= shrinkAt
// (shrinkAfter < 1 is treated as 1). growAt must exceed shrinkAt.
func NewBand(name string, min, max, start, inc int, growAt, shrinkAt float64, shrinkAfter int) *Band {
	if shrinkAfter < 1 {
		shrinkAfter = 1
	}
	return &Band{knob: newKnob(name, min, max, start, inc),
		growAt: growAt, shrinkAt: shrinkAt, shrinkAfter: shrinkAfter}
}

// Name implements Controller.
func (c *Band) Name() string { return c.name }

// Value implements Controller.
func (c *Band) Value() int { return c.value }

// Step implements Controller.
func (c *Band) Step(s Sample) Decision {
	if s.Weight <= 0 {
		return Hold
	}
	var d Decision
	switch {
	case s.Metric >= c.growAt:
		c.below = 0
		d = Grow
	case s.Metric <= c.shrinkAt:
		c.below++
		if c.below >= c.shrinkAfter {
			c.below = 0
			d = Shrink
		}
	default:
		c.below = 0
	}
	return c.move(invertIfMutated(d))
}
