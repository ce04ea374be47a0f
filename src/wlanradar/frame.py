"""SC PHY frame assembly: STF, CEF, header/payload, and CPI grouping.

Frame layout at symbol rate:

    [ STF 2176 | CEF 1152 | header | payload ]   -> K symbols total

STF  = 16 repetitions of a_128 followed by -a_128.
CEF  = [Gu_512, Gv_512, Gv_128] from the same pair (802.11ad): Gu_512 =
       [-b, -a, b, -a], Gv_512 = [-b, a, -b, -a], Gv_128 = -b.  The STF's
       -a_128 and Gu_512's tail are the two fields' cyclic prefixes.

The preamble is thus 26 blocks of 128 symbols, each +-a_128 or +-b_128
(``Preamble.blocks``), which is what lets a receiver correlate against it
block by block.

A coherent processing interval (CPI) is M frames of identical length K;
the preamble is bit-identical in every frame while header/payload symbols
are drawn fresh per frame.
"""

from __future__ import annotations

import operator
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
CEF_LEN = 512 + 512 + 128   # Gu_512, Gv_512, Gv_128
PREAMBLE_LEN = STF_LEN + CEF_LEN
CEF_PEAK_BIN = 256          # on-target channel-estimate bin when synchronized

# the preamble's 26 blocks of 128 symbols as weights of (a_128, b_128)
_BLOCKS = np.array([
    # STF: 16 x a, -a                                    Gu_512        Gv_512        Gv_128
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1,  0, -1, 0, -1,  0, 1,  0, -1,  0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,  0, -1,  0, 1,  0, -1, 0, -1,  0, -1],
], dtype=float)
_BLOCKS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Preamble:
    """The STF and CEF symbols, all built from one 128 Golay pair (a, b).

    Transmitter and receiver must correlate against the same sequences, so
    a caller substituting a pair (e.g. one loaded with ``load_golay_pair``)
    passes the same value to frame assembly and to the sync functions that
    correlate against the sequences.  ``stf``, ``cef``, ``symbols`` (STF
    then CEF) and ``cef_pair`` (Gu_512, Gv_512) are read-only.  Equality is
    identity: the fields are arrays.

    ``blocks`` is the block form ``symbols`` is built from: the read-only
    2 x 26 matrix of 0/+-1 weights with which block i of 128 symbols is
    blocks[0, i] a + blocks[1, i] b, one weight of each column nonzero.
    """

    pair128: GolayPair = field(default_factory=lambda: generate_golay_pair(128))
    stf: np.ndarray = field(init=False, repr=False)
    cef: np.ndarray = field(init=False, repr=False)
    symbols: np.ndarray = field(init=False, repr=False)
    blocks: np.ndarray = field(init=False, repr=False)
    cef_pair: GolayPair = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.pair128) != 128 or not self.pair128.is_complementary():
            raise ValueError("pair128 must be a complementary pair of length 128")
        a, b = self.pair128.a, self.pair128.b
        symbols = np.concatenate([wa * a + wb * b for wa, wb in _BLOCKS.T])
        symbols.flags.writeable = False
        object.__setattr__(self, "blocks", _BLOCKS)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "stf", symbols[:STF_LEN])
        object.__setattr__(self, "cef", symbols[STF_LEN:])
        object.__setattr__(self, "cef_pair", GolayPair(*self.cef[:1024].reshape(2, 512)))


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

    The CPI stream s is M concatenated frames whose header/payload symbols
    are one draw, ``default_rng(seed).integers(0, 2, M (K - PREAMBLE_LEN))
    * 2 - 1``, laid out frame after frame.  Returns the len(starts) x length
    matrix whose row r is s[starts[r] : starts[r] + length], zero outside
    [0, M K).  Only the symbols inside a window are drawn, so the whole CPI,
    ``assemble_cpi(m, layout, [0], m * layout.k, seed)[0]``, is the one call
    that pays for all M K.
    """
    m, length = operator.index(m), operator.index(length)   # PCG64.advance refuses numpy integers
    if m < 1:
        raise ValueError("a CPI needs at least one frame")
    k = layout.k
    per_frame = k - PREAMBLE_LEN
    out = np.zeros((len(starts), length))
    # (first and end index into the CPI's payload draw, flat index into out) of each piece
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
                i0 = f * per_frame + p0 - PREAMBLE_LEN
                pieces.append((i0, i0 + v - p0, r * length + f * k + p0 - lo))
    if not pieces:
        return out

    # integers(0, 2) reads one 32-bit half of a PCG64 output per symbol, low
    # half first, and returns its top bit: payload symbol i sits in output
    # i // 2, which PCG64.advance reaches without drawing the ones before it.
    # Pieces that overlap or abut in the draw, as frame r - 1's payload tail
    # and frame r's header do, form one run, read with one draw; the runs are
    # disjoint and sorted, so the generator only moves forward.
    pieces.sort()
    runs, src, base = [], [], 0   # src: where each piece starts in the runs' values
    for i0, i1, _ in pieces:
        if runs and i0 <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], i1)
        else:
            base += runs[-1][1] - runs[-1][0] if runs else 0
            runs.append([i0, i1])
        src.append(base + i0 - runs[-1][0])
    bitgen, pos, halves = np.random.PCG64(seed), 0, []
    for lo, hi in runs:
        j0, j1 = lo // 2, (hi + 1) // 2
        bitgen.advance(j0 - pos)
        raw = bitgen.random_raw(j1 - j0).astype("<u8", copy=False)
        halves.append(raw.view("<u4")[lo - 2 * j0 : hi - 2 * j0])
        pos = j1
    values = (np.concatenate(halves) >> 31) * 2.0 - 1.0
    # every piece's symbols in one scatter: piece p's run of values from
    # src[p] goes to out.flat from dest[p]
    i0, i1, dest = np.array(pieces).T
    n = i1 - i0
    step = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    out.reshape(-1)[np.repeat(dest, n) + step] = values[np.repeat(src, n) + step]
    return out
