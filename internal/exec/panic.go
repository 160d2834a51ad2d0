package exec

import (
	"fmt"
	"runtime"
)

// PanicError is a panic converted into an ordinary error at a goroutine
// boundary: a bug in one execution fails the query instead of crashing the
// process. The facade's read envelope and every shard-replica run recover
// into it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: recovered panic: %v", e.Value)
}

// RecoverPanic converts a recovered panic value (from recover()) into a
// *PanicError with the current stack captured. Returns nil for a nil value
// so it can be called unconditionally in a defer.
func RecoverPanic(v any) error {
	if v == nil {
		return nil
	}
	buf := make([]byte, 64<<10)
	return &PanicError{Value: v, Stack: buf[:runtime.Stack(buf, false)]}
}
