"""Reusable datapath components for the encoder netlists.

Structural builders over :class:`~repro.hw.netlist.Netlist`: adders,
population counts, comparators, multiplexers and small multipliers — the
vocabulary of the paper's Fig. 5.  Every builder returns LSB-first net
lists, and every builder has a bit-true unit test against its Python
integer semantics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .netlist import Netlist


def half_adder(nl: Netlist, a: int, b: int) -> Tuple[int, int]:
    """(sum, carry) of two bits."""
    return nl.gate("XOR2", a, b), nl.gate("AND2", a, b)


def full_adder(nl: Netlist, a: int, b: int, cin: int) -> Tuple[int, int]:
    """(sum, carry) of three bits — the classic 5-gate mapping."""
    axb = nl.gate("XOR2", a, b)
    total = nl.gate("XOR2", axb, cin)
    carry_inner = nl.gate("AND2", axb, cin)
    carry_direct = nl.gate("AND2", a, b)
    carry = nl.gate("OR2", carry_inner, carry_direct)
    return total, carry


def ripple_adder(nl: Netlist, a_bits: Sequence[int], b_bits: Sequence[int],
                 cin: Optional[int] = None,
                 width: Optional[int] = None) -> List[int]:
    """Unsigned addition, result truncated/zero-extended to *width* bits.

    Operands of different widths are zero-extended; the default result
    width is ``max(len(a), len(b)) + 1`` so no precision is lost.
    """
    out_width = width if width is not None else max(len(a_bits), len(b_bits)) + 1
    if out_width < 1:
        raise ValueError("width must be >= 1")
    result: List[int] = []
    carry = cin
    for position in range(out_width):
        a = a_bits[position] if position < len(a_bits) else None
        b = b_bits[position] if position < len(b_bits) else None
        operands = [bit for bit in (a, b, carry) if bit is not None]
        if not operands:
            result.append(nl.constant(0, 1)[0])
            carry = None
        elif len(operands) == 1:
            result.append(operands[0])
            carry = None
        elif len(operands) == 2:
            total, carry = half_adder(nl, operands[0], operands[1])
            result.append(total)
        else:
            total, carry = full_adder(nl, *operands)
            result.append(total)
    return result


def add_many(nl: Netlist, operands: Sequence[Sequence[int]],
             width: int, adder: str = "ripple") -> List[int]:
    """Sum several unsigned operands into a *width*-bit result.

    ``adder`` selects the architecture: ``"ripple"`` (minimal gates) or
    ``"carry-select"`` (shorter critical path, more gates).
    """
    if not operands:
        raise ValueError("add_many needs at least one operand")
    if adder not in ("ripple", "carry-select"):
        raise ValueError(f"unknown adder architecture {adder!r}")
    acc = list(operands[0])
    for operand in operands[1:]:
        if adder == "carry-select":
            acc = carry_select_adder(nl, acc, operand, width=width)
        else:
            acc = ripple_adder(nl, acc, operand, width=width)
    # Truncate/extend to exactly `width`.
    acc = acc[:width]
    while len(acc) < width:
        acc.append(nl.constant(0, 1)[0])
    return acc


def _ripple_block(nl: Netlist, a_bits: Sequence[int], b_bits: Sequence[int],
                  cin: int) -> Tuple[List[int], int]:
    """Equal-width ripple addition returning (sums, carry-out)."""
    sums: List[int] = []
    carry = cin
    for a, b in zip(a_bits, b_bits):
        total, carry = full_adder(nl, a, b, carry)
        sums.append(total)
    return sums, carry


def carry_select_adder(nl: Netlist, a_bits: Sequence[int],
                       b_bits: Sequence[int], width: int,
                       block: int = 4) -> List[int]:
    """Carry-select addition: same function as :func:`ripple_adder`, but
    the carry chain is broken into *block*-bit segments whose two possible
    results are precomputed and muxed by the incoming carry.

    Trades gates (~1.7x per segment) for logic depth — the classic fix
    for the ripple chain that dominates the OPT encoder's critical path.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if block < 1:
        raise ValueError("block must be >= 1")
    zero = nl.constant(0, 1)[0]
    a_ext = list(a_bits)[:width] + [zero] * max(0, width - len(a_bits))
    b_ext = list(b_bits)[:width] + [zero] * max(0, width - len(b_bits))

    result: List[int] = []
    # First block ripples normally from carry-in 0.
    first_a, first_b = a_ext[:block], b_ext[:block]
    sums, carry = _ripple_block(nl, first_a, first_b, zero)
    result.extend(sums)
    position = block
    one = nl.constant(1, 1)[0]
    while position < width:
        seg_a = a_ext[position:position + block]
        seg_b = b_ext[position:position + block]
        sums0, carry0 = _ripple_block(nl, seg_a, seg_b, zero)
        sums1, carry1 = _ripple_block(nl, seg_a, seg_b, one)
        result.extend(mux_bus(nl, sums0, sums1, carry))
        carry = nl.gate("MUX2", carry0, carry1, carry)
        position += block
    return result[:width]


def popcount(nl: Netlist, bits: Sequence[int]) -> List[int]:
    """Population count of *bits* as a minimal-width unsigned bus.

    Built as a balanced adder tree (pairs of 1-bit counts merge into 2-bit
    counts and so on) — the POPCNT block of the paper's Fig. 5.
    """
    if not bits:
        raise ValueError("popcount needs at least one bit")
    counts: List[List[int]] = [[bit] for bit in bits]
    while len(counts) > 1:
        merged: List[List[int]] = []
        for index in range(0, len(counts) - 1, 2):
            merged.append(ripple_adder(nl, counts[index], counts[index + 1]))
        if len(counts) % 2:
            merged.append(counts[-1])
        counts = merged
    result = counts[0]
    # Trim leading bits beyond the maximum representable count (len(bits)).
    max_width = max(1, len(bits).bit_length())
    return result[:max_width]


def invert_bus(nl: Netlist, bits: Sequence[int]) -> List[int]:
    """Bitwise complement of a bus."""
    return [nl.gate("INV", bit) for bit in bits]


def xor_bus(nl: Netlist, a_bits: Sequence[int], b_bits: Sequence[int]) -> List[int]:
    """Bitwise XOR of two equal-width buses."""
    if len(a_bits) != len(b_bits):
        raise ValueError(f"width mismatch: {len(a_bits)} vs {len(b_bits)}")
    return [nl.gate("XOR2", a, b) for a, b in zip(a_bits, b_bits)]


def xor_with_bit(nl: Netlist, bits: Sequence[int], control: int) -> List[int]:
    """XOR every bit of a bus with one control bit (conditional inversion).

    This is the byte-inversion bank at the bottom of the paper's Fig. 5.
    """
    return [nl.gate("XOR2", bit, control) for bit in bits]


def mux_bus(nl: Netlist, a_bits: Sequence[int], b_bits: Sequence[int],
            select: int) -> List[int]:
    """Per-bit 2:1 mux: result = b when select else a."""
    if len(a_bits) != len(b_bits):
        raise ValueError(f"width mismatch: {len(a_bits)} vs {len(b_bits)}")
    return [nl.gate("MUX2", a, b, select) for a, b in zip(a_bits, b_bits)]


def less_than(nl: Netlist, a_bits: Sequence[int], b_bits: Sequence[int]) -> int:
    """Unsigned comparison ``a < b`` as one bit.

    Computed as the carry-out of ``a + ~b + 1`` (i.e. a − b): no carry-out
    means a borrow occurred, hence a < b.
    """
    width = max(len(a_bits), len(b_bits))
    a_ext = list(a_bits) + [nl.constant(0, 1)[0]] * (width - len(a_bits))
    b_ext = list(b_bits) + [nl.constant(0, 1)[0]] * (width - len(b_bits))
    b_inverted = invert_bus(nl, b_ext)
    carry = nl.constant(1, 1)[0]
    for a, b in zip(a_ext, b_inverted):
        __, carry = full_adder(nl, a, b, carry)
    return nl.gate("INV", carry)


def min_select(nl: Netlist, a_bits: Sequence[int], b_bits: Sequence[int],
               ) -> Tuple[List[int], int]:
    """(min(a, b), selector) with selector = 1 when b is strictly smaller.

    The compare-and-forward block of Fig. 5: the selector bit is what the
    backtracking mux chain stores.
    """
    select_b = less_than(nl, b_bits, a_bits)
    width = max(len(a_bits), len(b_bits))
    zero = nl.constant(0, 1)[0]
    a_ext = list(a_bits) + [zero] * (width - len(a_bits))
    b_ext = list(b_bits) + [zero] * (width - len(b_bits))
    return mux_bus(nl, a_ext, b_ext, select_b), select_b


def subtract_from_const(nl: Netlist, constant_value: int,
                        bits: Sequence[int], width: int) -> List[int]:
    """``constant_value - bits`` for inputs guaranteed ≤ constant_value.

    Implemented as ``constant + ~bits + 1`` truncated to *width* bits —
    used for the ``8 − x`` / ``9 − x`` terms of Fig. 5.
    """
    if constant_value < 0:
        raise ValueError("constant_value must be non-negative")
    inverted = invert_bus(nl, bits)
    # Sign-extend the inverted operand with ones up to `width`.
    one = nl.constant(1, 1)[0]
    inverted = inverted + [one] * (width - len(inverted))
    const_bits = nl.constant(constant_value & ((1 << width) - 1), width)
    cin = nl.constant(1, 1)[0]
    result: List[int] = []
    carry = cin
    for a, b in zip(const_bits, inverted[:width]):
        total, carry = full_adder(nl, a, b, carry)
        result.append(total)
    return result


def multiply(nl: Netlist, a_bits: Sequence[int], b_bits: Sequence[int]) -> List[int]:
    """Unsigned array multiplier (shift-and-add partial products).

    Used for the ``·α`` / ``·β`` stages of the configurable-coefficient
    encoder; the paper's fixed-coefficient design exists precisely to
    remove these.
    """
    if not a_bits or not b_bits:
        raise ValueError("multiply needs non-empty operands")
    width = len(a_bits) + len(b_bits)
    zero = nl.constant(0, 1)[0]
    acc: List[int] = [zero] * width
    for shift, b in enumerate(b_bits):
        partial = [zero] * shift + [nl.gate("AND2", a, b) for a in a_bits]
        partial += [zero] * (width - len(partial))
        acc = ripple_adder(nl, acc, partial, width=width)
    return acc
