// Versioned datasets: a Delta edits a stored dataset (remove rows, append
// rows) and mints the result as an ordinary content-addressed entry, with the
// derivation recorded as Lineage. Because the child ID is the plain content
// fingerprint of the resulting dataset — not a hash of the edit script — a
// client that uploads the post-delta dataset directly lands on the *same* ID,
// so versioned IDs compose transparently with every fingerprint-keyed cache
// in the system (the job result LRU, the Valuer session cache, the neighbor
// rank cache): only entries keyed on the old ID go stale, everything keyed on
// the new ID is shared no matter how the content arrived.
package registry

import (
	"errors"
	"fmt"
	"sort"

	"knnshapley/internal/dataset"
)

// Delta is one edit applied to a stored dataset: first the parent rows named
// in Remove are dropped, then the rows of Append are added at the end, so
// surviving parent rows keep their relative order and appended rows occupy
// the tail indices. Either part may be empty, but not both.
type Delta struct {
	// Append holds the rows to add. Its dimension and response kind
	// (classification vs regression) must match the parent; its Classes may
	// exceed the parent's (the child takes the max).
	Append *dataset.Dataset
	// Remove lists parent row indices to drop. Duplicates and out-of-range
	// indices are rejected; order does not matter (ApplyDelta sorts a copy).
	Remove []int
}

// Lineage records how a versioned dataset was derived, one edge of the
// version DAG. Removed is sorted ascending and expressed in *parent* row
// coordinates; Appended is the number of rows added at the tail, so the
// child's rows are (parent rows minus Removed, in order) followed by
// Appended new rows.
type Lineage struct {
	// Parent is the ID the delta was applied to.
	Parent string
	// Removed lists the dropped parent row indices, ascending.
	Removed []int
	// Appended is the number of rows added at the child's tail.
	Appended int
}

// ApplyDelta applies d to the dataset stored under parentID and stores the
// result, returning a pinned handle to the child, its lineage, and whether
// the child content was new to the registry. The child's ID is its ordinary
// content fingerprint — identical to what a direct upload of the post-delta
// dataset would mint — and the lineage edge is recorded either way, so a
// later valuation of the child can discover the O(ΔN) incremental path.
func (r *Registry) ApplyDelta(parentID string, d Delta) (*Handle, Lineage, bool, error) {
	ph, err := r.Get(parentID)
	if err != nil {
		return nil, Lineage{}, false, err
	}
	defer ph.Release()
	parent := ph.Dataset()

	appendN := 0
	if d.Append != nil {
		appendN = d.Append.N()
	}
	if appendN == 0 && len(d.Remove) == 0 {
		return nil, Lineage{}, false, errors.New("registry: empty delta (nothing to append or remove)")
	}
	removed, err := normalizeRemove(d.Remove, parent.N())
	if err != nil {
		return nil, Lineage{}, false, err
	}
	if appendN > 0 {
		if err := d.Append.Validate(); err != nil {
			return nil, Lineage{}, false, fmt.Errorf("registry: delta append: %w", err)
		}
		if d.Append.Dim() != parent.Dim() {
			return nil, Lineage{}, false, fmt.Errorf("registry: delta append has dim %d, parent %s has dim %d",
				d.Append.Dim(), parentID, parent.Dim())
		}
		if d.Append.IsRegression() != parent.IsRegression() {
			return nil, Lineage{}, false, fmt.Errorf("registry: delta append response kind does not match parent %s", parentID)
		}
	}
	childN := parent.N() - len(removed) + appendN
	if childN == 0 {
		return nil, Lineage{}, false, errors.New("registry: delta would leave the dataset empty")
	}

	child := materializeDelta(parent, d.Append, removed, childN)
	h, created, err := r.Put(child)
	if err != nil {
		return nil, Lineage{}, false, err
	}
	lin := Lineage{Parent: parentID, Removed: removed, Appended: appendN}
	r.mu.Lock()
	// Last writer wins when the same content is derivable several ways; any
	// recorded edge is a valid incremental path, so the choice is free.
	r.lineage[h.ID()] = lin
	r.st.Deltas++
	r.mu.Unlock()
	return h, lin, created, nil
}

// LineageOf returns the recorded derivation of childID, if any. Lineage
// survives deletion of the datasets themselves (it is metadata about how an
// ID was minted, useful even if the parent has been evicted); callers must
// treat the Removed slice as immutable.
func (r *Registry) LineageOf(childID string) (Lineage, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lin, ok := r.lineage[childID]
	return lin, ok
}

// normalizeRemove sorts a copy of the removal list and rejects duplicates and
// out-of-range indices.
func normalizeRemove(remove []int, parentN int) ([]int, error) {
	if len(remove) == 0 {
		return nil, nil
	}
	out := append([]int(nil), remove...)
	sort.Ints(out)
	for i, idx := range out {
		if idx < 0 || idx >= parentN {
			return nil, fmt.Errorf("registry: delta remove index %d outside [0,%d)", idx, parentN)
		}
		if i > 0 && out[i-1] == idx {
			return nil, fmt.Errorf("registry: delta remove index %d repeated", idx)
		}
	}
	return out, nil
}

// materializeDelta builds the contiguous post-delta dataset: surviving parent
// rows in their original order, then the appended rows. removed is sorted
// ascending; childN is the resulting row count (> 0).
func materializeDelta(parent, app *dataset.Dataset, removed []int, childN int) *dataset.Dataset {
	dim := parent.Dim()
	flat := make([]float64, childN*dim)
	regression := parent.IsRegression()
	var labels []int
	var targets []float64
	if regression {
		targets = make([]float64, childN)
	} else {
		labels = make([]int, childN)
	}
	pos, ri := 0, 0
	for i := 0; i < parent.N(); i++ {
		if ri < len(removed) && removed[ri] == i {
			ri++
			continue
		}
		copy(flat[pos*dim:(pos+1)*dim], parent.X[i])
		if regression {
			targets[pos] = parent.Targets[i]
		} else {
			labels[pos] = parent.Labels[i]
		}
		pos++
	}
	if app != nil {
		for j := 0; j < app.N(); j++ {
			copy(flat[pos*dim:(pos+1)*dim], app.X[j])
			if regression {
				targets[pos] = app.Targets[j]
			} else {
				labels[pos] = app.Labels[j]
			}
			pos++
		}
	}
	child := dataset.FromFlat(flat, childN, dim)
	child.Name = parent.Name
	child.Labels = labels
	child.Targets = targets
	child.Classes = parent.Classes
	if app != nil && app.Classes > child.Classes {
		child.Classes = app.Classes
	}
	return child
}
