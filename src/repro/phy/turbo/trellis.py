"""Trellis description of a recursive systematic convolutional (RSC) encoder.

The UMTS/HSPA turbo code uses the 8-state RSC code with feedback polynomial
``1 + D^2 + D^3`` (octal 13) and feed-forward polynomial ``1 + D + D^3``
(octal 15).  This module precomputes the state-transition and output tables
the encoder and the max-log-MAP decoder need, plus the reverse tables
(predecessor states) used by the vectorised forward recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ensure_positive_int


def _octal_to_taps(octal_value: int, constraint_length: int) -> np.ndarray:
    """Convert an octal generator (e.g. 0o13) to a tap array [g0, g1, ..]."""
    binary = np.array(
        [(octal_value >> i) & 1 for i in range(constraint_length - 1, -1, -1)],
        dtype=np.int8,
    )
    return binary


@dataclass(frozen=True)
class RscTrellis:
    """Precomputed trellis tables for a rate-1/2 RSC encoder.

    Parameters
    ----------
    feedback:
        Feedback polynomial in octal (13 for UMTS).
    feedforward:
        Feed-forward (parity) polynomial in octal (15 for UMTS).
    constraint_length:
        Number of taps including the current input (4 for UMTS, 8 states).

    Attributes
    ----------
    next_state:
        ``next_state[s, u]`` — state after input bit ``u`` from state ``s``.
    parity:
        ``parity[s, u]`` — parity output bit for that transition.
    prev_state:
        ``prev_state[s', k]`` (k = 0, 1) — the two predecessor states of
        ``s'``.
    prev_input:
        ``prev_input[s', k]`` — the input bit on the branch from
        ``prev_state[s', k]`` to ``s'``.
    byte_next_state:
        ``byte_next_state[s, b]`` — state after the eight input bits of byte
        ``b`` (first bit in the most significant place) from state ``s``.
    byte_parity:
        ``byte_parity[s, b]`` — the eight parity bits of that walk, packed
        the same way.
    """

    feedback: int = 0o13
    feedforward: int = 0o15
    constraint_length: int = 4

    next_state: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    parity: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    prev_state: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    prev_input: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    byte_next_state: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    byte_parity: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        ensure_positive_int(self.constraint_length, "constraint_length")
        memory = self.constraint_length - 1
        num_states = 1 << memory
        fb_taps = _octal_to_taps(self.feedback, self.constraint_length)
        ff_taps = _octal_to_taps(self.feedforward, self.constraint_length)

        next_state = np.zeros((num_states, 2), dtype=np.int64)
        parity = np.zeros((num_states, 2), dtype=np.int8)

        for state in range(num_states):
            # Shift register contents, most recent bit first.
            register = np.array(
                [(state >> (memory - 1 - i)) & 1 for i in range(memory)], dtype=np.int8
            )
            # The feedback contribution from the register (excluding input tap).
            fb_from_register = int(np.dot(fb_taps[1:], register) % 2)
            for u in (0, 1):
                # Recursive bit entering the register.
                d = (u ^ fb_from_register) & 1
                full = np.concatenate([[d], register])
                parity[state, u] = int(np.dot(ff_taps, full) % 2)
                new_register = full[:-1]
                new_state = 0
                for bit in new_register:
                    new_state = (new_state << 1) | int(bit)
                next_state[state, u] = new_state

        prev_state = np.zeros((num_states, 2), dtype=np.int64)
        prev_input = np.zeros((num_states, 2), dtype=np.int64)
        counts = np.zeros(num_states, dtype=np.int64)
        for state in range(num_states):
            for u in (0, 1):
                target = next_state[state, u]
                slot = counts[target]
                prev_state[target, slot] = state
                prev_input[target, slot] = u
                counts[target] += 1
        if not np.all(counts == 2):
            raise RuntimeError("invalid trellis: every state must have two predecessors")

        # Every (state, byte) pair walked one bit at a time, all pairs at once.
        bytes_ = np.arange(256)
        byte_next_state = np.repeat(np.arange(num_states)[:, None], 256, axis=1)
        byte_parity = np.zeros((num_states, 256), dtype=np.int64)
        for shift in range(7, -1, -1):
            u = (bytes_ >> shift) & 1
            byte_parity = (byte_parity << 1) | parity[byte_next_state, u]
            byte_next_state = next_state[byte_next_state, u]

        object.__setattr__(self, "next_state", next_state)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "prev_state", prev_state)
        object.__setattr__(self, "prev_input", prev_input)
        object.__setattr__(self, "byte_next_state", byte_next_state)
        object.__setattr__(self, "byte_parity", byte_parity.astype(np.uint8))

    @property
    def num_states(self) -> int:
        """Number of trellis states (8 for the UMTS code)."""
        return int(self.next_state.shape[0])

    def encode_bits_batch(
        self, bits: np.ndarray, initial_state: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the RSC encoder over each row of a ``(batch, length)`` bit matrix.

        The shift-register recursion is an exact integer table lookup swept
        across the batch eight input bits per step, through the flattened
        ``256 * state + byte`` tables (one add and two 1-D gathers a step);
        the last ``length % 8`` bits take the same walk one bit at a time on
        the ``2 * state + bit`` tables.  Returns
        ``(parity_matrix, final_states)``.
        """
        info = np.asarray(bits, dtype=np.uint8)
        if info.ndim != 2:
            raise ValueError(f"expected a 2-D bit matrix, got shape {info.shape}")
        batch, length = info.shape
        whole = length - length % 8
        out = np.empty((batch, length), dtype=np.int8)

        byte_columns = np.ascontiguousarray(np.packbits(info[:, :whole], axis=1).T)
        byte_parity = self.byte_parity.reshape(-1)
        byte_next_base = 256 * self.byte_next_state.reshape(-1)
        base = np.full(batch, 256 * int(initial_state), dtype=np.int64)
        parity_bytes = np.empty(byte_columns.shape, dtype=np.uint8)
        for i in range(whole // 8):
            index = base + byte_columns[i]
            parity_bytes[i] = byte_parity[index]
            base = byte_next_base[index]
        out[:, :whole] = np.unpackbits(np.ascontiguousarray(parity_bytes.T), axis=1)

        tail_columns = np.ascontiguousarray(info[:, whole:].T)
        parity = self.parity.reshape(-1)
        next_base = 2 * self.next_state.reshape(-1)
        base //= 128  # 256 * state -> 2 * state
        for i in range(length - whole):
            index = base + tail_columns[i]
            out[:, whole + i] = parity[index]
            base = next_base[index]
        return out, base // 2


#: The UMTS / HSPA constituent-code trellis (octal generators 13 / 15).
UMTS_TRELLIS = RscTrellis()
