"""Independent golden-semantics model of RV64IMFD for differential checking.

:class:`GoldenMachine` executes the same instruction words as
:class:`repro.isa.interp.Interpreter` but shares nothing with it beyond
the decoder: architectural state is kept as raw bit patterns (64-bit
unsigned integers for both register files, a byte-addressed ``dict`` for
memory), and every operation is written directly from the ISA manual with
integer masks and ``struct`` conversions — no numpy, no Python-float
register file, no page tables.  Where the two implementations disagree,
one of them is wrong, and the differential oracle
(:mod:`repro.check.oracle`) flags it.

Deliberate, documented semantic choices shared with the interpreter:

* The FP register file holds **double bit patterns**; single-precision
  results are widened to double after rounding (no NaN boxing).
* NaN *computation* results are the RISC-V canonical quiet NaN
  (``0x7FF8_0000_0000_0000``).  Pure bit moves (``fsgnj*``, ``fmv.*``,
  ``fld``/``fsd``) preserve payloads; narrowing/widening conversions
  truncate/extend payloads the way hardware float casts do.
* ``fmadd.d`` and friends are evaluated as a rounded multiply followed by
  a rounded add (the interpreter's documented non-fused sequence), not as
  a single fused rounding.
"""

from __future__ import annotations

import math
import struct

from ..isa.encoding import Instr, decode

__all__ = ["GoldenMachine", "GoldenError", "CANONICAL_NAN_BITS"]

_M64 = (1 << 64) - 1
_M32 = 0xFFFFFFFF

#: RISC-V canonical quiet NaN (double / single)
CANONICAL_NAN_BITS = 0x7FF8_0000_0000_0000
_CANONICAL_NAN32 = 0x7FC0_0000

_SIGN64 = 1 << 63
_EXP64 = 0x7FF0_0000_0000_0000
_FRAC64 = (1 << 52) - 1
_SIGN32 = 1 << 31
_EXP32 = 0x7F80_0000
_FRAC32 = (1 << 23) - 1


class GoldenError(RuntimeError):
    """Raised when the golden model cannot continue (bad pc, fuel)."""


def _sx(v: int, bits: int) -> int:
    """Two's-complement value of the low *bits* of *v*."""
    v &= (1 << bits) - 1
    return v - (1 << bits) if v >> (bits - 1) else v


def _f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & _M64))[0]


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _is_nan64(b: int) -> bool:
    return (b & _EXP64) == _EXP64 and (b & _FRAC64) != 0


def _canon(b: int) -> int:
    """Canonicalize a NaN result; pass every other bit pattern through."""
    return CANONICAL_NAN_BITS if _is_nan64(b) else b


def _pack_result(x: float) -> int:
    """Double result of an arithmetic op -> register bits, canonical NaN."""
    return _canon(_bits(x))


def _widen_f32(b32: int) -> int:
    """f32 bits -> f64 bits, the way a hardware float cast does it."""
    b32 &= _M32
    sign = (b32 >> 31) & 1
    exp = (b32 >> 23) & 0xFF
    frac = b32 & _FRAC32
    if exp == 0xFF:
        if frac:  # NaN: quieted, payload shifted into the high mantissa
            return (sign << 63) | _EXP64 | (1 << 51) | ((frac & 0x3FFFFF) << 29)
        return (sign << 63) | _EXP64
    return _bits(struct.unpack("<f", struct.pack("<I", b32))[0])


def _narrow_f64(b64: int) -> int:
    """f64 bits -> f32 bits (round to nearest even; hardware NaN rule)."""
    b64 &= _M64
    sign = (b64 >> 63) & 1
    if _is_nan64(b64):
        return (sign << 31) | _EXP32 | (1 << 22) | ((b64 >> 29) & 0x3FFFFF)
    x = _f64(b64)
    try:
        return struct.unpack("<I", struct.pack("<f", x))[0]
    except OverflowError:  # magnitude rounds past f32 max -> infinity
        return (sign << 31) | _EXP32


def _round_f32(x: float) -> float:
    """Round a double to the nearest float32, returned as a double."""
    return _f64(_widen_f32(_narrow_f64(_bits(x))))


def _fdiv(a: float, c: float) -> float:
    """IEEE division (Python raises on zero divisors; hardware doesn't)."""
    if c == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.copysign(math.inf, 1.0 if (a > 0) == (math.copysign(1.0, c) > 0) else -1.0)
    return a / c


def _fsqrt(a: float) -> float:
    if math.isnan(a) or a < 0.0:
        return math.nan if a != 0.0 else a  # sqrt(-0.0) is -0.0
    return math.sqrt(a)


def _fminmax(ab: int, cb: int, want_max: bool) -> int:
    """RISC-V fmin.d/fmax.d on raw bits: NaN-aware, -0.0 < +0.0."""
    a_nan, c_nan = _is_nan64(ab), _is_nan64(cb)
    if a_nan and c_nan:
        return CANONICAL_NAN_BITS
    if a_nan:
        return cb
    if c_nan:
        return ab
    a, c = _f64(ab), _f64(cb)
    if a == c:  # equal values: only ±0.0 differ by sign; pick by sign bit
        neg = ab if ab >> 63 else cb
        pos = cb if ab >> 63 else ab
        return pos if want_max else neg
    if want_max:
        return ab if a > c else cb
    return ab if a < c else cb


class GoldenMachine:
    """Reference executor for differential checking.

    Parameters mirror :class:`repro.isa.interp.Interpreter`: *program* is
    a list of 32-bit instruction words laid out from *base*.
    """

    def __init__(self, program: list[int], base: int = 0x1_0000) -> None:
        self.program = list(program)
        self.base = base
        self.pc = base
        self.xregs = [0] * 32          # raw unsigned 64-bit
        self.fregs = [0] * 32          # raw IEEE-754 double bits
        self.mem: dict[int, int] = {}  # byte address -> byte value
        self.retired = 0
        self.halted = False
        self._decoded: list[Instr] = [decode(w) for w in program]

    # -- architectural helpers -------------------------------------------

    def _wx(self, rd: int, value: int) -> None:
        if rd != 0:
            self.xregs[rd] = value & _M64

    def _load(self, addr: int, size: int, signed: bool) -> int:
        val = 0
        for i in range(size):
            val |= self.mem.get((addr + i) & _M64, 0) << (8 * i)
        return _sx(val, 8 * size) & _M64 if signed else val

    def _store(self, addr: int, value: int, size: int) -> None:
        for i in range(size):
            self.mem[(addr + i) & _M64] = (value >> (8 * i)) & 0xFF

    # -- execution -------------------------------------------------------

    def run(self, max_instructions: int = 1_000_000) -> "GoldenMachine":
        fuel = max_instructions
        end = self.base + 4 * len(self.program)
        while not self.halted and self.base <= self.pc < end:
            if fuel <= 0:
                raise GoldenError(
                    f"exceeded {max_instructions} instructions at pc={self.pc:#x}")
            self.step()
            fuel -= 1
        return self

    def step(self) -> None:
        idx = (self.pc - self.base) >> 2
        if not 0 <= idx < len(self._decoded):
            raise GoldenError(f"pc {self.pc:#x} outside program")
        self._exec(self._decoded[idx])
        self.retired += 1

    def _exec(self, ins: Instr) -> None:
        m = ins.mnemonic
        x = self.xregs
        r1 = x[ins.rs1]
        r2 = x[ins.rs2]
        pc = self.pc
        nxt = pc + 4

        if m[0] == "f" and m != "fence":
            self._exec_fp(ins, r1)
            self.pc = nxt
            return

        imm = ins.imm
        if m == "add":
            self._wx(ins.rd, r1 + r2)
        elif m == "sub":
            self._wx(ins.rd, r1 - r2)
        elif m == "sll":
            self._wx(ins.rd, r1 << (r2 & 63))
        elif m == "slt":
            self._wx(ins.rd, 1 if _sx(r1, 64) < _sx(r2, 64) else 0)
        elif m == "sltu":
            self._wx(ins.rd, 1 if r1 < r2 else 0)
        elif m == "xor":
            self._wx(ins.rd, r1 ^ r2)
        elif m == "srl":
            self._wx(ins.rd, r1 >> (r2 & 63))
        elif m == "sra":
            self._wx(ins.rd, _sx(r1, 64) >> (r2 & 63))
        elif m == "or":
            self._wx(ins.rd, r1 | r2)
        elif m == "and":
            self._wx(ins.rd, r1 & r2)
        elif m == "addw":
            self._wx(ins.rd, _sx(r1 + r2, 32))
        elif m == "subw":
            self._wx(ins.rd, _sx(r1 - r2, 32))
        elif m == "sllw":
            self._wx(ins.rd, _sx(r1 << (r2 & 31), 32))
        elif m == "srlw":
            self._wx(ins.rd, _sx((r1 & _M32) >> (r2 & 31), 32))
        elif m == "sraw":
            self._wx(ins.rd, _sx(r1, 32) >> (r2 & 31))
        elif m == "mul":
            self._wx(ins.rd, r1 * r2)
        elif m == "mulh":
            self._wx(ins.rd, (_sx(r1, 64) * _sx(r2, 64)) >> 64)
        elif m == "mulhsu":
            self._wx(ins.rd, (_sx(r1, 64) * r2) >> 64)
        elif m == "mulhu":
            self._wx(ins.rd, (r1 * r2) >> 64)
        elif m == "mulw":
            self._wx(ins.rd, _sx(r1 * r2, 32))
        elif m in ("div", "rem"):
            s1, s2 = _sx(r1, 64), _sx(r2, 64)
            self._wx(ins.rd, self._divrem(s1, s2, 64, m == "div"))
        elif m in ("divw", "remw"):
            s1, s2 = _sx(r1, 32), _sx(r2, 32)
            self._wx(ins.rd, self._divrem(s1, s2, 32, m == "divw"))
        elif m == "divu":
            self._wx(ins.rd, r1 // r2 if r2 else _M64)
        elif m == "remu":
            self._wx(ins.rd, r1 % r2 if r2 else r1)
        elif m == "divuw":
            u1, u2 = r1 & _M32, r2 & _M32
            self._wx(ins.rd, _sx(u1 // u2 if u2 else _M32, 32))
        elif m == "remuw":
            u1, u2 = r1 & _M32, r2 & _M32
            self._wx(ins.rd, _sx(u1 % u2 if u2 else u1, 32))
        elif m == "addi":
            self._wx(ins.rd, r1 + imm)
        elif m == "slti":
            self._wx(ins.rd, 1 if _sx(r1, 64) < imm else 0)
        elif m == "sltiu":
            self._wx(ins.rd, 1 if r1 < (imm & _M64) else 0)
        elif m == "xori":
            self._wx(ins.rd, r1 ^ (imm & _M64))
        elif m == "ori":
            self._wx(ins.rd, r1 | (imm & _M64))
        elif m == "andi":
            self._wx(ins.rd, r1 & imm)
        elif m == "slli":
            self._wx(ins.rd, r1 << imm)
        elif m == "srli":
            self._wx(ins.rd, r1 >> imm)
        elif m == "srai":
            self._wx(ins.rd, _sx(r1, 64) >> imm)
        elif m == "addiw":
            self._wx(ins.rd, _sx(r1 + imm, 32))
        elif m == "slliw":
            self._wx(ins.rd, _sx(r1 << imm, 32))
        elif m == "srliw":
            self._wx(ins.rd, _sx((r1 & _M32) >> imm, 32))
        elif m == "sraiw":
            self._wx(ins.rd, _sx(r1, 32) >> imm)
        elif m == "lui":
            self._wx(ins.rd, _sx(imm << 12, 32))
        elif m == "auipc":
            self._wx(ins.rd, pc + _sx(imm << 12, 32))
        elif m in ("lb", "lh", "lw", "ld"):
            self._wx(ins.rd, self._load((r1 + imm) & _M64, ins.mem_size, True))
        elif m in ("lbu", "lhu", "lwu"):
            self._wx(ins.rd, self._load((r1 + imm) & _M64, ins.mem_size, False))
        elif m in ("sb", "sh", "sw", "sd"):
            self._store((r1 + imm) & _M64, r2, ins.mem_size)
        elif m in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            s1, s2 = _sx(r1, 64), _sx(r2, 64)
            taken = {"beq": r1 == r2, "bne": r1 != r2, "blt": s1 < s2,
                     "bge": s1 >= s2, "bltu": r1 < r2, "bgeu": r1 >= r2}[m]
            if taken:
                nxt = pc + imm
        elif m == "jal":
            self._wx(ins.rd, nxt)
            nxt = pc + imm
        elif m == "jalr":
            target = (r1 + imm) & _M64 & ~1
            self._wx(ins.rd, pc + 4)
            nxt = target
        elif m in ("ecall", "ebreak"):
            self.halted = True
        elif m == "fence":
            pass
        else:  # pragma: no cover - decode() yields nothing else
            raise GoldenError(f"golden model: unimplemented {m}")
        self.pc = nxt

    @staticmethod
    def _divrem(s1: int, s2: int, bits: int, quotient: bool) -> int:
        """Signed division per the ISA: trunc toward zero, corner cases."""
        if s2 == 0:
            return -1 if quotient else s1
        if s1 == -(1 << (bits - 1)) and s2 == -1:  # signed overflow
            return s1 if quotient else 0
        q = abs(s1) // abs(s2)
        r = abs(s1) - q * abs(s2)
        if quotient:
            return -q if (s1 < 0) != (s2 < 0) else q
        return -r if s1 < 0 else r

    def _exec_fp(self, ins: Instr, r1: int) -> None:
        m = ins.mnemonic
        f = self.fregs
        ab = f[ins.rs1]
        cb = f[ins.rs2]

        if m == "fld":
            f[ins.rd] = self._load((r1 + ins.imm) & _M64, 8, False)
        elif m == "flw":
            f[ins.rd] = _widen_f32(self._load((r1 + ins.imm) & _M64, 4, False))
        elif m == "fsd":
            self._store((r1 + ins.imm) & _M64, cb, 8)
        elif m == "fsw":
            self._store((r1 + ins.imm) & _M64, _narrow_f64(cb), 4)
        elif m in ("fadd.d", "fsub.d", "fmul.d", "fdiv.d"):
            a, c = _f64(ab), _f64(cb)
            if m == "fadd.d":
                out = a + c
            elif m == "fsub.d":
                out = a - c
            elif m == "fmul.d":
                out = a * c
            else:
                out = _fdiv(a, c)
            f[ins.rd] = _pack_result(out)
        elif m in ("fadd.s", "fsub.s", "fmul.s", "fdiv.s"):
            a, c = _round_f32(_f64(ab)), _round_f32(_f64(cb))
            if m == "fadd.s":
                out = a + c
            elif m == "fsub.s":
                out = a - c
            elif m == "fmul.s":
                out = a * c
            else:
                out = _fdiv(a, c)
            f[ins.rd] = _pack_result(_round_f32(out))
        elif m == "fsqrt.d":
            f[ins.rd] = _pack_result(_fsqrt(_f64(ab)))
        elif m in ("fmadd.d", "fmsub.d", "fnmsub.d", "fnmadd.d"):
            a, c, d = _f64(ab), _f64(cb), _f64(f[ins.rs3])
            prod = a * c
            out = {"fmadd.d": prod + d, "fmsub.d": prod - d,
                   "fnmsub.d": -prod + d, "fnmadd.d": -prod - d}[m]
            f[ins.rd] = _pack_result(out)
        elif m == "fmin.d":
            f[ins.rd] = _fminmax(ab, cb, want_max=False)
        elif m == "fmax.d":
            f[ins.rd] = _fminmax(ab, cb, want_max=True)
        elif m == "fsgnj.d":
            f[ins.rd] = (ab & ~_SIGN64) | (cb & _SIGN64)
        elif m == "fsgnjn.d":
            f[ins.rd] = (ab & ~_SIGN64) | ((cb ^ _SIGN64) & _SIGN64)
        elif m == "fsgnjx.d":
            f[ins.rd] = ab ^ (cb & _SIGN64)
        elif m in ("feq.d", "flt.d", "fle.d"):
            if _is_nan64(ab) or _is_nan64(cb):
                res = 0
            else:
                a, c = _f64(ab), _f64(cb)
                res = int({"feq.d": a == c, "flt.d": a < c,
                           "fle.d": a <= c}[m])
            self._wx(ins.rd, res)
        elif m in ("fcvt.w.d", "fcvt.l.d"):
            bits = 32 if m == "fcvt.w.d" else 64
            lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            if _is_nan64(ab):
                res = hi
            else:
                a = _f64(ab)
                if math.isinf(a):
                    res = hi if a > 0 else lo
                else:
                    res = min(max(int(a), lo), hi)
            self._wx(ins.rd, res)
        elif m == "fcvt.d.w":
            f[ins.rd] = _bits(float(_sx(r1, 32)))
        elif m == "fcvt.d.l":
            f[ins.rd] = _bits(float(_sx(r1, 64)))
        elif m in ("fcvt.s.d", "fcvt.d.s"):
            f[ins.rd] = _canon(_widen_f32(_narrow_f64(ab)))
        elif m == "fmv.x.d":
            self._wx(ins.rd, ab)
        elif m == "fmv.d.x":
            f[ins.rd] = r1
        else:  # pragma: no cover
            raise GoldenError(f"golden model: unimplemented fp {m}")
