package isa

import "math"

// The evaluation helpers below define the arithmetic semantics of the
// virtual ISA. The compiler's constant folder calls them; the VM inlines
// the same arithmetic in its dispatch loop for speed, and the VM's golden
// test (TestGoldenEventStream) checks the two agree by running real
// programs through a reference interpreter built on these helpers. If
// they disagreed, optimized and unoptimized code could compute different
// results.

// EvalIntBin evaluates an integer binary opcode over two operands. The
// second result is false when the operation would trap (divide or modulo by
// zero). Shift counts are masked to 0..63.
func EvalIntBin(op Opcode, a, b int64) (int64, bool) {
	switch op {
	case ADD:
		return a + b, true
	case SUB:
		return a - b, true
	case MUL:
		return a * b, true
	case DIV:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case MOD:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case AND:
		return a & b, true
	case OR:
		return a | b, true
	case XOR:
		return a ^ b, true
	case SHL:
		return a << (uint64(b) & 63), true
	case SHR:
		return a >> (uint64(b) & 63), true
	case CMPEQ:
		return b2i(a == b), true
	case CMPNE:
		return b2i(a != b), true
	case CMPLT:
		return b2i(a < b), true
	case CMPLE:
		return b2i(a <= b), true
	case CMPGT:
		return b2i(a > b), true
	case CMPGE:
		return b2i(a >= b), true
	}
	panic("isa: EvalIntBin: not an integer binary opcode: " + op.String())
}

// EvalIntUn evaluates an integer unary opcode.
func EvalIntUn(op Opcode, a int64) int64 {
	switch op {
	case NEG:
		return -a
	case NOTB:
		return ^a
	case MOV:
		return a
	}
	panic("isa: EvalIntUn: not an integer unary opcode: " + op.String())
}

// EvalFloatBin evaluates a floating-point arithmetic opcode.
func EvalFloatBin(op Opcode, a, b float64) float64 {
	switch op {
	case FADD:
		return a + b
	case FSUB:
		return a - b
	case FMUL:
		return a * b
	case FDIV:
		return a / b
	}
	panic("isa: EvalFloatBin: not a float binary opcode: " + op.String())
}

// EvalFloatCmp evaluates a floating-point comparison, returning 0 or 1.
func EvalFloatCmp(op Opcode, a, b float64) int64 {
	switch op {
	case FCMPEQ:
		return b2i(a == b)
	case FCMPNE:
		return b2i(a != b)
	case FCMPLT:
		return b2i(a < b)
	case FCMPLE:
		return b2i(a <= b)
	case FCMPGT:
		return b2i(a > b)
	case FCMPGE:
		return b2i(a >= b)
	}
	panic("isa: EvalFloatCmp: not a float comparison: " + op.String())
}

// EvalFloatUn evaluates a floating-point unary opcode.
func EvalFloatUn(op Opcode, a float64) float64 {
	switch op {
	case FNEG:
		return -a
	case FSQRT:
		return math.Sqrt(a)
	case FSIN:
		return math.Sin(a)
	case FCOS:
		return math.Cos(a)
	case FABS:
		return math.Abs(a)
	}
	panic("isa: EvalFloatUn: not a float unary opcode: " + op.String())
}

// IsIntBin reports whether op is a two-operand integer ALU operation
// (including comparisons).
func IsIntBin(op Opcode) bool {
	switch op {
	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR,
		CMPEQ, CMPNE, CMPLT, CMPLE, CMPGT, CMPGE:
		return true
	}
	return false
}

// IsFloatBin reports whether op is a two-operand FP arithmetic operation.
func IsFloatBin(op Opcode) bool {
	switch op {
	case FADD, FSUB, FMUL, FDIV:
		return true
	}
	return false
}

// IsFloatCmp reports whether op is an FP comparison.
func IsFloatCmp(op Opcode) bool {
	switch op {
	case FCMPEQ, FCMPNE, FCMPLT, FCMPLE, FCMPGT, FCMPGE:
		return true
	}
	return false
}

// IsFloatUn reports whether op is a one-operand FP operation.
func IsFloatUn(op Opcode) bool {
	switch op {
	case FNEG, FSQRT, FSIN, FCOS, FABS:
		return true
	}
	return false
}

// HasSideEffects reports whether the instruction writes memory, transfers
// control, or performs I/O — i.e. whether dead-code elimination must keep it
// even when its destination is unused.
func HasSideEffects(op Opcode) bool {
	switch op {
	case ST, STL, BR, JMP, RET, CALL, PRINTI, PRINTF:
		return true
	}
	return false
}

// F2I converts a float to an integer with C truncation semantics, made
// total (and deterministic across the VM and the constant folder) by mapping
// NaN to 0 and clamping out-of-range values.
func F2I(f float64) int64 {
	switch {
	case f != f: // NaN
		return 0
	case f >= 9.223372036854775e18:
		return math.MaxInt64
	case f <= -9.223372036854775e18:
		return math.MinInt64
	}
	return int64(f)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
