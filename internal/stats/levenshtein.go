// Package stats provides the statistical primitives used throughout the
// Packet Chasing reproduction: edit distance for sequence-recovery and
// covert-channel error measurement, banded alignment distance for the
// fingerprint classifier, pseudo-random bit sequences for
// channel-capacity tests, and summary statistics (means, confidence
// intervals, percentiles).
package stats

import "sync"

// Levenshtein returns the minimum number of single-element insertions,
// deletions, or substitutions required to transform a into b.
//
// The paper uses Levenshtein distance twice: to quantify the distance
// between the recovered ring-buffer sequence and the ground-truth sequence
// (Table I), and to measure covert-channel transmission error (Section IV).
func Levenshtein(a, b []int) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			curr[j] = min3(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

// ErrorRate returns the Levenshtein distance between sent and received
// normalized by the sent length, as a fraction in [0,1] (it may exceed 1
// when the received stream contains many spurious insertions).
func ErrorRate(sent, received []int) float64 {
	if len(sent) == 0 {
		return 0
	}
	return float64(Levenshtein(sent, received)) / float64(len(sent))
}

// LevenshteinOps decomposes the Levenshtein distance from a to b into its
// operation counts: deletions remove elements of a, insertions add
// elements of b, substitutions replace one with the other. The total
// ins+del+sub equals Levenshtein(a, b). The counts are read off the
// canonical Align backtrace, so they are deterministic and consistent
// with every other alignment-derived metric.
func LevenshteinOps(a, b []int) (ins, del, sub int) {
	return OpsFromSteps(Align(a, b))
}

// OpsFromSteps counts an alignment's operations, for callers that derive
// several metrics from one Align pass.
func OpsFromSteps(steps []AlignStep) (ins, del, sub int) {
	for _, s := range steps {
		switch s.Op {
		case OpInsert:
			ins++
		case OpDelete:
			del++
		case OpSubstitute:
			sub++
		}
	}
	return ins, del, sub
}

// AlignOp is one step of a minimal edit alignment from a to b.
type AlignOp int

const (
	// OpMatch consumes equal elements from both sequences.
	OpMatch AlignOp = iota
	// OpSubstitute consumes one element from each, unequal.
	OpSubstitute
	// OpDelete consumes an element of a with no counterpart in b.
	OpDelete
	// OpInsert consumes an element of b with no counterpart in a.
	OpInsert
)

// AlignStep pairs an operation with the indices it consumed: I into a, J
// into b, -1 for the side an insertion/deletion does not touch.
type AlignStep struct {
	Op   AlignOp
	I, J int
}

// alignMatrices holds Align's DP matrices for reuse across calls: a trial
// aligns sequences of hundreds to thousands of elements, so each matrix
// is tens of KB to MBs, and allocating one per call dominated the
// measure phase's garbage.
var alignMatrices sync.Pool // of *[]int32

// Align returns a minimal edit alignment from a to b in forward order —
// the single authoritative backtrace behind LevenshteinOps,
// LongestMismatch, and the chaser's per-class confusion metrics. When
// several minimal alignments exist the backtrace prefers matches, then
// substitutions, then deletions — a fixed rule, so every derived metric
// is deterministic and mutually consistent. The (n+1)×(m+1) DP matrix is
// one flat, pooled buffer; only the returned steps are allocated.
func Align(a, b []int) []AlignStep {
	n, m := len(a), len(b)
	if n+m == 0 {
		return nil
	}
	w := m + 1
	buf, _ := alignMatrices.Get().(*[]int32)
	if buf == nil {
		buf = new([]int32)
	}
	defer alignMatrices.Put(buf)
	if size := (n + 1) * w; cap(*buf) < size {
		*buf = make([]int32, size)
	}
	d := (*buf)[:(n+1)*w]
	for j := range w {
		d[j] = int32(j)
	}
	for i := 1; i <= n; i++ {
		prev, row := d[(i-1)*w:i*w], d[i*w:(i+1)*w]
		row[0] = int32(i)
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			cost := int32(1)
			if ai == b[j-1] {
				cost = 0
			}
			row[j] = min(prev[j]+1, row[j-1]+1, prev[j-1]+cost)
		}
	}
	// Walk back from (n, m), filling the steps from the end.
	steps := make([]AlignStep, n+m)
	k := len(steps)
	i, j := n, m
	for i > 0 || j > 0 {
		k--
		here := d[i*w+j]
		switch {
		case i > 0 && j > 0 && a[i-1] == b[j-1] && here == d[(i-1)*w+j-1]:
			steps[k] = AlignStep{Op: OpMatch, I: i - 1, J: j - 1}
			i, j = i-1, j-1
		case i > 0 && j > 0 && here == d[(i-1)*w+j-1]+1:
			steps[k] = AlignStep{Op: OpSubstitute, I: i - 1, J: j - 1}
			i, j = i-1, j-1
		case i > 0 && here == d[(i-1)*w+j]+1:
			steps[k] = AlignStep{Op: OpDelete, I: i - 1, J: -1}
			i--
		default:
			steps[k] = AlignStep{Op: OpInsert, I: -1, J: j - 1}
			j--
		}
	}
	return steps[k:]
}

// LongestMismatch returns the length of the longest run of consecutive
// positions at which the aligned sequences disagree. Alignment is the
// canonical Align backtrace; mismatched, inserted, and deleted elements
// all count as disagreement. Table I reports this as "Longest Mismatch".
func LongestMismatch(a, b []int) int {
	longest, run := 0, 0
	for _, s := range Align(a, b) {
		if s.Op == OpMatch {
			run = 0
			continue
		}
		run++
		if run > longest {
			longest = run
		}
	}
	return longest
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
