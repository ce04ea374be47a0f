"""SC PHY frame assembly: STF, CEF, header/payload, and CPI grouping.

Frame layout at symbol rate:

    [ STF 2176 | CEF 1152 | header | payload ]   -> K symbols total

STF  = 16 repetitions of a_128 followed by -a_128.
CEF  = [a_512, b_512, -b_128]; the STF's trailing -a_128 doubles as the
       128-sample cyclic-prefix context for CEF processing.

A coherent processing interval (CPI) is M frames of identical length K;
the preamble is bit-identical in every frame while header/payload symbols
are drawn fresh per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .golay import GolayPair, generate_golay_pair

__all__ = [
    "STF_LEN",
    "CEF_LEN",
    "PREAMBLE_LEN",
    "CEF_PEAK_BIN",
    "Preamble",
    "DEFAULT_PREAMBLE",
    "FrameLayout",
    "assemble_frame",
    "assemble_cpi",
]

STF_LEN = 17 * 128          # 16 x a_128 then -a_128
CEF_LEN = 512 + 512 + 128   # a_512, b_512, -b_128
PREAMBLE_LEN = STF_LEN + CEF_LEN
CEF_PEAK_BIN = 256          # on-target channel-estimate bin when synchronized


@dataclass(frozen=True, eq=False)
class Preamble:
    """The STF and CEF symbols built from one 128 and one 512 Golay pair.

    Transmitter and receiver must correlate against the same pairs, so a
    caller substituting a pair (e.g. one loaded with ``load_golay_pair``)
    passes the same value to frame assembly and to the sync functions that
    correlate against the sequences.  ``stf``, ``cef`` and ``symbols`` (STF
    then CEF) are read-only.  Equality is identity: the fields are arrays.
    """

    pair128: GolayPair = field(default_factory=lambda: generate_golay_pair(128))
    pair512: GolayPair = field(default_factory=lambda: generate_golay_pair(512))
    stf: np.ndarray = field(init=False, repr=False)
    cef: np.ndarray = field(init=False, repr=False)
    symbols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for n, pair in ((128, self.pair128), (512, self.pair512)):
            if len(pair) != n:
                raise ValueError(f"pair has length {len(pair)}, expected {n}")
            if not pair.is_complementary():
                raise ValueError(f"length-{n} pair fails the complementarity check")
        a128, b128 = self.pair128.a, self.pair128.b
        symbols = np.concatenate(
            [np.tile(a128, 16), -a128, self.pair512.a, self.pair512.b, -b128]
        ).astype(float)
        symbols.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "stf", symbols[:STF_LEN])
        object.__setattr__(self, "cef", symbols[STF_LEN:])


DEFAULT_PREAMBLE = Preamble()


@dataclass(frozen=True)
class FrameLayout:
    """Symbol-level description of one SC PHY frame."""

    k: int
    header_len: int = 1024

    def __post_init__(self):
        if self.header_len < 0:
            raise ValueError("header_len must be nonnegative")
        if self.k < PREAMBLE_LEN + self.header_len:
            raise ValueError(
                f"K={self.k} too small: need at least preamble ({PREAMBLE_LEN}) "
                f"+ header ({self.header_len}) symbols"
            )

    @property
    def payload_len(self) -> int:
        return self.k - PREAMBLE_LEN - self.header_len


def assemble_frame(
    layout: FrameLayout,
    seed,
    preamble: Preamble = DEFAULT_PREAMBLE,
) -> np.ndarray:
    """One frame of K unit-energy symbols: preamble, then random BPSK header/payload.

    ``seed`` may be an int or a numpy Generator; the same seed reproduces the
    same frame exactly.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    frame = np.empty(layout.k)
    frame[:PREAMBLE_LEN] = preamble.symbols
    frame[PREAMBLE_LEN:] = rng.integers(0, 2, layout.k - PREAMBLE_LEN) * 2.0 - 1.0
    return frame


def assemble_cpi(
    m: int,
    layout: FrameLayout,
    starts,
    length: int,
    seed: int,
    preamble: Preamble = DEFAULT_PREAMBLE,
) -> np.ndarray:
    """Read windows of a CPI: M frames, identical preambles, fresh payloads.

    The CPI stream s is M concatenated frames; frame f's header/payload
    symbols are the ones ``assemble_frame`` draws from the generator seeded
    with child f of ``SeedSequence(seed)``.  Returns the len(starts) x length
    matrix whose row r is s[starts[r] : starts[r] + length], zero outside
    [0, M K).  Only the symbols inside a window are drawn, so the whole CPI,
    ``assemble_cpi(m, layout, [0], m * layout.k, seed)[0]``, is the one call
    that pays for all M K.
    """
    if m < 1:
        raise ValueError("a CPI needs at least one frame")
    k = layout.k
    out = np.zeros((len(starts), length))
    # (frame, first and end payload index, row, column) of each payload piece
    pieces = []
    for r, lo in enumerate(np.asarray(starts, dtype=int).tolist()):
        a, b = max(lo, 0), min(lo + length, m * k)
        for f in range(a // k, (b - 1) // k + 1):
            u, v = max(a - f * k, 0), min(b - f * k, k)   # frame-local span
            col = f * k + u - lo
            if u < PREAMBLE_LEN:
                w = min(v, PREAMBLE_LEN)
                out[r, col : col + w - u] = preamble.symbols[u:w]
            if v > PREAMBLE_LEN:
                p0 = max(u, PREAMBLE_LEN)
                pieces.append((f, p0 - PREAMBLE_LEN, v - PREAMBLE_LEN, r, f * k + p0 - lo))

    # integers(0, 2) reads one 32-bit half of a PCG64 output per symbol, low
    # half first, and returns its top bit: payload symbol i sits in output
    # i // 2, which PCG64.advance reaches without drawing the ones before it
    children = np.random.SeedSequence(seed).spawn(m)
    frame = pos = -1
    for f, i0, i1, r, col in sorted(pieces):
        j0, j1 = i0 // 2, (i1 + 1) // 2
        if f != frame or j0 < pos:   # a new frame, or a piece overlapping the last
            bitgen, frame, pos = np.random.PCG64(children[f]), f, 0
        bitgen.advance(j0 - pos)
        raw = bitgen.random_raw(j1 - j0).astype("<u8", copy=False)
        halves = raw.view("<u4")[i0 - 2 * j0 : i1 - 2 * j0]
        out[r, col : col + i1 - i0] = (halves >> 31) * 2.0 - 1.0
        pos = j1
    return out
