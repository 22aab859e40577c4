package sweep

import (
	"encoding/json"
	"fmt"
)

// maxAxisValues bounds a single axis (a range with a tiny step must not
// allocate unbounded memory before the cell-count limit can catch it).
const maxAxisValues = 4096

// IntAxis is one integer sweep dimension. In JSON it is either an explicit
// list ([128, 256, 512]), a single number (256), or an inclusive range
// object ({"from": 128, "to": 512, "step": 128}); it always marshals back
// as the explicit list, which is the canonical form Key hashes.
type IntAxis struct {
	values []int
}

// Ints builds an axis from explicit values.
func Ints(vs ...int) IntAxis { return IntAxis{values: vs} }

// IntRange builds an axis covering from, from+step, ... up to and
// including to where the step lands on it. step must be positive and from
// <= to.
func IntRange(from, to, step int) (IntAxis, error) {
	if step <= 0 || from > to {
		return IntAxis{}, fmt.Errorf("sweep: bad range [%d,%d] step %d", from, to, step)
	}
	if (to-from)/step+1 > maxAxisValues {
		return IntAxis{}, fmt.Errorf("sweep: range [%d,%d] step %d exceeds %d values", from, to, step, maxAxisValues)
	}
	var vs []int
	for v := from; v <= to; v += step {
		vs = append(vs, v)
	}
	return IntAxis{values: vs}, nil
}

// Values returns the axis values in sweep order.
func (a IntAxis) Values() []int { return append([]int(nil), a.values...) }

// IsZero reports an unset axis (encoding/json's omitzero hook).
func (a IntAxis) IsZero() bool { return len(a.values) == 0 }

// MarshalJSON emits the canonical explicit-list form.
func (a IntAxis) MarshalJSON() ([]byte, error) {
	if a.values == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(a.values)
}

// intRangeJSON is the range-object spelling.
type intRangeJSON struct {
	From *int `json:"from"`
	To   *int `json:"to"`
	Step int  `json:"step"`
}

// UnmarshalJSON accepts a list, a bare number, or a range object.
func (a *IntAxis) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '[' {
		var vs []int
		if err := json.Unmarshal(b, &vs); err != nil {
			return err
		}
		if len(vs) > maxAxisValues {
			return fmt.Errorf("sweep: axis lists %d values, limit %d", len(vs), maxAxisValues)
		}
		a.values = vs
		return nil
	}
	if len(b) > 0 && b[0] == '{' {
		var r intRangeJSON
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if r.From == nil || r.To == nil {
			return fmt.Errorf("sweep: range object needs \"from\" and \"to\"")
		}
		step := r.Step
		if step == 0 {
			step = 1
		}
		ax, err := IntRange(*r.From, *r.To, step)
		if err != nil {
			return err
		}
		*a = ax
		return nil
	}
	var v int
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	a.values = []int{v}
	return nil
}

// FloatAxis is one float sweep dimension with the same JSON spellings as
// IntAxis ({"from": 0.5, "to": 2, "step": 0.5} for ranges).
type FloatAxis struct {
	values []float64
}

// Floats builds an axis from explicit values.
func Floats(vs ...float64) FloatAxis { return FloatAxis{values: vs} }

// Values returns the axis values in sweep order.
func (a FloatAxis) Values() []float64 { return append([]float64(nil), a.values...) }

// IsZero reports an unset axis.
func (a FloatAxis) IsZero() bool { return len(a.values) == 0 }

// MarshalJSON emits the canonical explicit-list form.
func (a FloatAxis) MarshalJSON() ([]byte, error) {
	if a.values == nil {
		return []byte("[]"), nil
	}
	return json.Marshal(a.values)
}

// floatRangeJSON is the range-object spelling.
type floatRangeJSON struct {
	From *float64 `json:"from"`
	To   *float64 `json:"to"`
	Step float64  `json:"step"`
}

// UnmarshalJSON accepts a list, a bare number, or a range object.
func (a *FloatAxis) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '[' {
		var vs []float64
		if err := json.Unmarshal(b, &vs); err != nil {
			return err
		}
		if len(vs) > maxAxisValues {
			return fmt.Errorf("sweep: axis lists %d values, limit %d", len(vs), maxAxisValues)
		}
		a.values = vs
		return nil
	}
	if len(b) > 0 && b[0] == '{' {
		var r floatRangeJSON
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		if r.From == nil || r.To == nil {
			return fmt.Errorf("sweep: range object needs \"from\" and \"to\"")
		}
		if r.Step <= 0 || *r.From > *r.To {
			return fmt.Errorf("sweep: bad range [%g,%g] step %g", *r.From, *r.To, r.Step)
		}
		// Values are computed as from + i*step (not accumulated), with a
		// step-relative tolerance and endpoint snapping, so the documented
		// inclusive "to" endpoint is never lost to float drift (0.1+0.1+0.1
		// > 0.3 must still yield [0.1, 0.2, 0.3]). The explicit float64
		// conversions round each product, so no architecture fuses it into
		// the add: the values, and the job keys they feed, are the same
		// everywhere.
		eps := float64(r.Step * 1e-9)
		var vs []float64
		for i := 0; ; i++ {
			v := *r.From + float64(float64(i)*r.Step)
			if v > *r.To+eps {
				break
			}
			if v > *r.To-eps {
				v = *r.To
			}
			vs = append(vs, v)
			if len(vs) > maxAxisValues {
				return fmt.Errorf("sweep: range [%g,%g] step %g exceeds %d values", *r.From, *r.To, r.Step, maxAxisValues)
			}
		}
		a.values = vs
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	a.values = []float64{v}
	return nil
}
