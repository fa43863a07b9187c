// Package tensor implements the dense n-dimensional tensors that underpin
// every other subsystem of this repository: the parallelizable tensor
// collection (PTC), the Tensor Store, the state transformer and the mini
// DL system all exchange values of type *Tensor.
//
// Tensors carry their element type (DType), a shape, and a flat,
// row-major backing byte slice. Sub-tensor extraction and insertion are
// expressed with Region values ([lo,hi) ranges per dimension), matching
// the NumPy-like "range=[:,2:4]" queries of the Tensor Store REST API.
package tensor

import "fmt"

// DType identifies the element type of a Tensor.
type DType uint8

// Supported element types. Float16 is stored as raw IEEE 754 binary16
// bytes; it exists so model-state byte accounting matches half-precision
// checkpoints, and it is converted through float32 for arithmetic.
const (
	Invalid DType = iota
	Float32
	Float64
	Float16
	Int64
	Int32
	Uint8
)

var dtypeNames = map[DType]string{
	Invalid: "invalid",
	Float32: "float32",
	Float64: "float64",
	Float16: "float16",
	Int64:   "int64",
	Int32:   "int32",
	Uint8:   "uint8",
}

// dtypeSizes is indexed by DType; Invalid (and anything past Uint8) has
// no size. An array, not a map: Size sits under every Region.NumBytes
// on the planner and datapath hot paths.
var dtypeSizes = [...]uint8{
	Float32: 4,
	Float64: 8,
	Float16: 2,
	Int64:   8,
	Int32:   4,
	Uint8:   1,
}

// Size returns the width of one element in bytes.
func (d DType) Size() int {
	if !d.Valid() {
		panic(fmt.Sprintf("tensor: size of invalid dtype %d", d))
	}
	return int(dtypeSizes[d])
}

// Valid reports whether d is one of the supported element types.
func (d DType) Valid() bool {
	return int(d) < len(dtypeSizes) && dtypeSizes[d] != 0
}

func (d DType) String() string {
	if s, ok := dtypeNames[d]; ok {
		return s
	}
	return fmt.Sprintf("dtype(%d)", d)
}

// ParseDType is the inverse of DType.String. It returns Invalid and an
// error for unknown names.
func ParseDType(s string) (DType, error) {
	for d, name := range dtypeNames {
		if name == s && d != Invalid {
			return d, nil
		}
	}
	return Invalid, fmt.Errorf("tensor: unknown dtype %q", s)
}
