package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/defense"
)

// Axis is one swept scenario parameter: a name and the values it takes.
// Well-known names (see WithCell) map directly onto Spec fields; other
// names are interpreted by the sweep experiment itself.
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	// Labels, when non-empty, names each value of a categorical axis
	// (len(Labels) == len(Values)); cell keys render the label instead of
	// the number, so a defense axis reads "defense=adaptive-partition"
	// rather than "defense=6". Values remain the numeric coordinates
	// (registry indices for the defense axis) in Coords and JSON.
	Labels []string `json:"labels,omitempty"`
}

// Grid is an ordered list of axes whose cartesian product defines the
// cells of a parameter sweep.
type Grid []Axis

// Validate checks the grid is enumerable.
func (g Grid) Validate() error {
	if len(g) == 0 {
		return fmt.Errorf("grid: no axes")
	}
	seen := map[string]bool{}
	for _, a := range g {
		if a.Name == "" {
			return fmt.Errorf("grid: axis with empty name")
		}
		if seen[a.Name] {
			return fmt.Errorf("grid: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("grid: axis %q has no values", a.Name)
		}
		if len(a.Labels) > 0 && len(a.Labels) != len(a.Values) {
			return fmt.Errorf("grid: axis %q has %d labels for %d values",
				a.Name, len(a.Labels), len(a.Values))
		}
	}
	return nil
}

// Size returns the number of cells in the cartesian product.
func (g Grid) Size() int {
	n := 1
	for _, a := range g {
		n *= len(a.Values)
	}
	return n
}

// Cells enumerates the cartesian product in row-major order: the last axis
// varies fastest. The order is part of the sweep report's determinism
// contract, so it must never depend on anything but the grid itself.
func (g Grid) Cells() []Cell {
	axes := make([]string, len(g))
	for i, a := range g {
		axes[i] = a.Name
	}
	labeled := false
	for _, a := range g {
		if len(a.Labels) > 0 {
			labeled = true
		}
	}
	cells := make([]Cell, 0, g.Size())
	idx := make([]int, len(g))
	for {
		values := make([]float64, len(g))
		var labels []string
		if labeled {
			labels = make([]string, len(g))
		}
		for i, a := range g {
			values[i] = a.Values[idx[i]]
			if len(a.Labels) > 0 {
				labels[i] = a.Labels[idx[i]]
			}
		}
		cells = append(cells, Cell{axes: axes, values: values, labels: labels})
		i := len(g) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(g[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return cells
		}
	}
}

// Cell is one point of a grid: an ordered list of (axis, value) pairs,
// optionally with a display label per categorical coordinate.
type Cell struct {
	axes   []string
	values []float64
	labels []string // empty, or parallel to values; "" = numeric axis
}

// NewCell builds a cell directly (tests and hand-rolled sweeps).
func NewCell(axes []string, values []float64) Cell {
	return Cell{axes: axes, values: values}
}

// Key renders the cell as a stable coordinate string, e.g.
// "noise_rate=20000,timer_noise=4" or "defense=adaptive-partition". Axis
// order follows the grid; numeric values use the shortest exact float
// form and labeled coordinates use their label, so the key is
// deterministic and usable as a map key, a report key, and an RNG
// derivation label.
func (c Cell) Key() string {
	var b strings.Builder
	for i, a := range c.axes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a)
		b.WriteByte('=')
		if i < len(c.labels) && c.labels[i] != "" {
			b.WriteString(c.labels[i])
		} else {
			b.WriteString(strconv.FormatFloat(c.values[i], 'g', -1, 64))
		}
	}
	return b.String()
}

// Label returns the cell's label on the named axis ("" and false when the
// axis is absent or unlabeled).
func (c Cell) Label(name string) (string, bool) {
	for i, a := range c.axes {
		if a == name {
			if i < len(c.labels) && c.labels[i] != "" {
				return c.labels[i], true
			}
			return "", false
		}
	}
	return "", false
}

// Value returns the cell's value on the named axis.
func (c Cell) Value(name string) (float64, bool) {
	for i, a := range c.axes {
		if a == name {
			return c.values[i], true
		}
	}
	return 0, false
}

// Coords returns the cell as an axis->value map (JSON reporting; Go
// marshals maps with sorted keys, so the encoding is deterministic).
// Categorical axes appear here as their numeric coordinates (e.g. defense
// registry indices) — pair with Labels, which carries the meaning; the
// index alone silently changes whenever the registry order does.
func (c Cell) Coords() map[string]float64 {
	m := make(map[string]float64, len(c.axes))
	for i, a := range c.axes {
		m[a] = c.values[i]
	}
	return m
}

// Labels returns the cell's categorical coordinates as an axis->label map
// (nil when no axis is labeled). Sweep reports emit it alongside Coords so
// a defense cell is identified by its registry *name*, not just an index
// whose meaning shifts with registry order.
func (c Cell) Labels() map[string]string {
	var m map[string]string
	for i, a := range c.axes {
		if i < len(c.labels) && c.labels[i] != "" {
			if m == nil {
				m = make(map[string]string)
			}
			m[a] = c.labels[i]
		}
	}
	return m
}

// Well-known axis names WithCell maps onto Spec fields.
const (
	AxisNoiseRate  = "noise_rate"
	AxisTimerNoise = "timer_noise"
	AxisRingSize   = "ring_size"
	AxisDefense    = "defense"
)

// DefenseAxis builds the categorical defense axis: values are defense
// registry indices, labels are registry names. With no arguments the
// axis spans the whole registry; otherwise it spans the named defenses
// in the given order. Unknown names panic — a sweep axis is always
// assembled from literals, so a typo is a programming error.
func DefenseAxis(names ...string) Axis {
	all := defense.All()
	if len(names) == 0 {
		names = defense.Names()
	}
	ax := Axis{Name: AxisDefense}
	for _, n := range names {
		idx := -1
		for i, d := range all {
			if d.Name() == n {
				idx = i
				break
			}
		}
		if idx < 0 {
			panic(fmt.Sprintf("scenario: unknown defense %q in axis", n))
		}
		ax.Values = append(ax.Values, float64(idx))
		ax.Labels = append(ax.Labels, n)
	}
	return ax
}

// Restrict returns a copy of the grid with the named labeled axis
// narrowed to the given labels, in the given order. This is how a sweep
// override (the CLI's -defense flag, a service job's defense field)
// subsets a registered sweep without re-registering it: cell keys, seeds,
// and numeric coordinates are exactly those the full grid would produce
// for the same cells, so a restricted run's cells are byte-identical to
// the matching slice of the full sweep. Labels must be a subset of the
// axis's own labels — an override can narrow a sweep's defense set, not
// smuggle in defenses its author never evaluated — and duplicates are
// rejected (duplicate cell keys would collide in the result matrix).
func (g Grid) Restrict(axisName string, labels []string) (Grid, error) {
	if len(labels) == 0 {
		return g, nil
	}
	ai := -1
	for i, a := range g {
		if a.Name == axisName {
			ai = i
			break
		}
	}
	if ai < 0 {
		return nil, fmt.Errorf("grid: no axis %q to restrict", axisName)
	}
	axis := g[ai]
	if len(axis.Labels) == 0 {
		return nil, fmt.Errorf("grid: axis %q is numeric, not labeled", axisName)
	}
	out := make(Grid, len(g))
	copy(out, g)
	narrowed := Axis{Name: axis.Name}
	seen := map[string]bool{}
	for _, want := range labels {
		if seen[want] {
			return nil, fmt.Errorf("grid: duplicate label %q in restriction", want)
		}
		seen[want] = true
		idx := -1
		for i, l := range axis.Labels {
			if l == want {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("grid: axis %q has no label %q (have %s)",
				axisName, want, strings.Join(axis.Labels, ", "))
		}
		narrowed.Values = append(narrowed.Values, axis.Values[idx])
		narrowed.Labels = append(narrowed.Labels, axis.Labels[idx])
	}
	out[ai] = narrowed
	return out, nil
}

// WithCell returns a copy of the spec with the cell's well-known axes
// applied. Axes the spec does not model (e.g. a sweep-private packet-rate
// axis) are left for the sweep's own Run to read via Value. A defense
// coordinate is resolved against the registry.
func (s Spec) WithCell(c Cell) Spec {
	if v, ok := c.Value(AxisNoiseRate); ok {
		s.NoiseRate = v
	}
	if v, ok := c.Value(AxisTimerNoise); ok {
		s.TimerNoise = uint64(v)
	}
	if v, ok := c.Value(AxisRingSize); ok {
		s.RingSize = int(v)
	}
	if v, ok := c.Value(AxisDefense); ok {
		all := defense.All()
		i := int(v)
		if i < 0 || i >= len(all) {
			panic(fmt.Sprintf("scenario: defense axis index %d outside its %d defenses", i, len(all)))
		}
		s.Defense = all[i]
	}
	return s
}
