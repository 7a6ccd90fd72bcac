"""Packed bits: 0/1 arrays as Python ints and back.

Bit i of an int stands for element i of a flat 0/1 array (little-endian bit
order), so shifts and masks of the int act on positions of the array and
`int.bit_count` counts its ones. Every exact bit-string engine of the
package packs through here: the cycle blocks of `recurrence`, the row words
of `ledrappier` and the Kronecker product of `rank_one`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def pack(bits: np.ndarray) -> int:
    """The int whose bit i is element i of `bits`, flattened in C order.

    Each element must be 0 or 1 (or a bool): any nonzero element packs as 1.
    """
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def unpack(words: Sequence[int], count: int) -> np.ndarray:
    """uint8 rows of 0/1, one row per int of `words`: column i of a row is
    bit i of its int, for i < `count`. Each int must be non-negative and
    fit in ceil(count / 8) bytes."""
    nbytes = (count + 7) // 8
    packed = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in words), np.uint8)
    return np.unpackbits(packed.reshape(len(words), nbytes), axis=1, count=count,
                         bitorder="little")
