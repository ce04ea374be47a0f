"""Golay complementary sequence pairs and the correlators built on them.

The 802.11ad SC PHY preamble is assembled from one binary Golay
complementary pair (a_128, b_128).  The defining property is that the
aperiodic autocorrelations of the two sequences sum to a Kronecker delta:
R_a[k] + R_b[k] = 2N for k = 0 and exactly 0 elsewhere.  Receivers exploit
this by correlating the received pair with both halves and summing, which
collapses the pair into a single-sample channel probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import _conj_spectrum, _fft_correlate, _lag_read

__all__ = [
    "GolayPair",
    "generate_golay_pair",
    "aperiodic_autocorr",
    "golay_pair_correlate",
    "load_golay_pair",
]


@dataclass(frozen=True)
class GolayPair:
    """A binary (+1/-1) pair of equal length: Golay complementary (``is_complementary``),
    or, like the CEF's (Gu_512, Gv_512), complementary only in the periodic sense."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a)
        b = np.asarray(self.b)
        if a.ndim != 1 or b.ndim != 1 or len(a) != len(b):
            raise ValueError("pair members must be 1-d and of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return len(self.a)

    def is_complementary(self) -> bool:
        """Exact integer check of the complementary-autocorrelation property."""
        s = aperiodic_autocorr(self.a.astype(np.int64)) + aperiodic_autocorr(
            self.b.astype(np.int64)
        )
        n = len(self.a)
        expected = np.zeros(2 * n - 1, dtype=np.int64)
        expected[n - 1] = 2 * n
        return bool(np.array_equal(s, expected))


def generate_golay_pair(length: int) -> GolayPair:
    """Generate a binary Golay complementary pair of the given power-of-two length.

    Uses the length-doubling concatenation a' = [a b], b' = [a -b] seeded
    with a = b = [+1].  Any pair produced this way satisfies the
    complementarity invariant in exact integer arithmetic.
    """
    if length < 2 or (length & (length - 1)) != 0:
        raise ValueError(f"Golay pair length must be a power of two >= 2, got {length}")
    a = np.array([1], dtype=np.int64)
    b = np.array([1], dtype=np.int64)
    while len(a) < length:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return GolayPair(a, b)


def aperiodic_autocorr(seq) -> np.ndarray:
    """Aperiodic autocorrelation over lags -(N-1)..(N-1).

    out[lag + N - 1] = sum_n seq[n] conj(seq[n - lag]); conjugate-symmetric
    for real input.
    """
    x = np.asarray(seq)
    if x.size == 0:
        raise ValueError("autocorrelation of an empty sequence")
    # np.correlate conjugates its second argument, so 'full' mode yields
    # out[lag] = sum_n x[n] conj(x[n-lag]) over lags -(N-1)..(N-1).
    return np.correlate(x, x, mode="full")


def golay_pair_correlate(
    rx,
    pair: GolayPair,
    window: tuple[int, int],
    gate: int | None = None,
) -> np.ndarray:
    """Correlate a received stream against the concatenated pair [a b].

    Computes, for each lag l in the half-open window [lo, hi),

        gamma(l) = (1/2N) * ( sum_n rx[n + l] conj(a[n])
                             + sum_n rx[n + l + N] conj(b[n]) )

    so that a clean, aligned [a b] yields gamma = 1 at its offset.  A lag is
    the position of the a-window within the stream.

    Two windowing modes:

    * gate=None (sliding): gamma(l) = (1/2N) sum_{n<2N} rx[l + n] conj([a b][n]),
      one correlation of rx[..., lo : hi - 1 + 2N] against [a b], a read
      ``dsp._lag_read`` refuses unless every lag fits [a b] inside the stream.
      Amplitude is exact for shifted copies of the pair, but off-peak values
      pick up the cross terms between the a/b segments and whatever surrounds
      them.  ``rx`` may stack rows along leading axes, shape (..., L); every
      row is correlated over the same window.
    * gate=g (cyclic, the standard's CEF estimate): the records rx[g:g+N]
      and rx[g+N:g+2N] are read cyclically, each index n + l - g mod N, over
      a window of at most N lags.  For a periodic complementary pair, records
      that are cyclic shifts of a and b give a delta, exact within rounding,
      across all N lags.  This is the form behind the gated channel estimate
      (acceptance criterion 2) and the ambiguity bench; detection reads no
      CEF.  ``rx`` must be 1-d, and rx[g : g + 2N], the read of the one lag g
      of [a b] (``dsp._lag_read``), must lie inside it and be finite.

    A non-finite sample read raises ValueError in either mode.
    """
    y = np.asarray(rx, dtype=complex)
    n = len(pair)
    lo, hi = window
    if gate is None:
        span = _lag_read(y, window, 2 * n)
        ref = _conj_spectrum(np.concatenate([pair.a, pair.b]), span.shape[-1])
        return _fft_correlate(span, ref, hi - lo) / (2 * n)
    if y.ndim != 1:
        raise ValueError("cyclic correlation takes a 1-d stream")
    records = _lag_read(y, (gate, gate + 1), 2 * n)   # the one lag g of [a b]
    if not 0 < hi - lo <= n:
        raise ValueError(f"lag window {window} is empty or leaves the records' {n} cyclic lags")
    if not np.isfinite(records).all():
        raise ValueError("the gated read contains non-finite samples")
    # each record extended by its first N - 1 samples: one period of cyclic lags
    c = sum(np.correlate(np.concatenate([r, r[:-1]]), ref.astype(complex), "valid")
            for r, ref in zip(records.reshape(2, n), (pair.a, pair.b)))
    return c[np.arange(lo - gate, hi - gate) % n] / (2 * n)


def load_golay_pair(path_a, path_b) -> GolayPair:
    """Load a pair override from plain-text files, one +-1 symbol per line.

    Validates complementarity on load so bit-exact standard sequences can be
    substituted without weakening downstream guarantees.
    """
    a = _read_pm1(path_a)
    b = _read_pm1(path_b)
    pair = GolayPair(a, b)
    if not pair.is_complementary():
        raise ValueError("loaded sequences do not form a complementary pair")
    return pair


def _read_pm1(path) -> np.ndarray:
    values = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        v = int(line)
        if v not in (1, -1):
            raise ValueError(f"invalid symbol {v!r} in {path}; expected +1/-1")
        values.append(v)
    return np.array(values, dtype=np.int64)
