"""Golay complementary sequence pairs and the correlators built on them.

The 802.11ad SC PHY preamble is assembled from binary Golay complementary
pairs (a_N, b_N) for N in {128, 256, 512}.  The defining property is that
the aperiodic autocorrelations of the two sequences sum to a Kronecker
delta: R_a[k] + R_b[k] = 2N for k = 0 and exactly 0 elsewhere.  Receivers
exploit this by correlating the received pair with both halves and summing,
which collapses the pair into a single-sample channel probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import _fft_convolve

__all__ = [
    "GolayPair",
    "generate_golay_pair",
    "aperiodic_autocorr",
    "golay_pair_correlate",
    "load_golay_pair",
]


@dataclass(frozen=True)
class GolayPair:
    """A binary (+1/-1) Golay complementary pair of equal length."""

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
    lags,
    gate: int | None = None,
) -> np.ndarray:
    """Correlate a received stream against the concatenated pair [a b].

    Computes, for each requested lag l,

        gamma(l) = (1/2N) * ( sum_n rx[n + l] conj(a[n])
                             + sum_n rx[n + l + N] conj(b[n]) )

    so that a clean, aligned [a b] yields gamma = 1 at its offset.

    Two windowing modes:

    * gate=None (sliding): gamma(l) = (1/2N) sum_{n<2N} rx[l + n] conj([a b][n])
      over the zero-extended stream, one correlation against [a b].  Amplitude
      is exact for shifted copies of the pair, but off-peak values pick up the
      cross terms between the a/b segments and whatever surrounds them.
      ``rx`` may stack rows along leading axes, shape (..., L); every row is
      correlated at the same lags.
    * gate=g (segment-gated): rx[g:g+N] and rx[g+N:g+2N] are extracted and
      treated as isolated records (zeros outside).  For an echo aligned to
      the gate the response is the complementary sum R_a + R_b, i.e. an
      exact delta across every off-peak lag.  This is the form behind the
      gated channel estimate (acceptance criterion 2) and the ambiguity
      bench; detection reads no CEF.  ``rx`` must be 1-d.

    ``lags`` is an array of lag values, each the position of the a-window
    within the stream.
    """
    y = np.asarray(rx, dtype=complex)
    n = len(pair)
    if y.ndim < 1 or y.shape[-1] < 2 * n:
        raise ValueError(f"rx must contain at least 2N={2 * n} samples, got {y.shape}")
    lags = np.asarray(lags, dtype=int)

    if gate is None:
        return _sliding_corr(y, np.concatenate([pair.a, pair.b]), lags) / (2 * n)
    if y.ndim != 1:
        raise ValueError("segment-gated correlation takes a 1-d stream")
    a = np.asarray(pair.a, dtype=complex)
    b = np.asarray(pair.b, dtype=complex)
    c_a = _segment_corr(y[gate : gate + n], a, lags - gate)
    c_b = _segment_corr(y[gate + n : gate + 2 * n], b, lags - gate)
    return (c_a + c_b) / (2 * n)


def _sliding_corr(y: np.ndarray, ref: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """out[..., i] = sum_k y[..., lags[i] + k] conj(ref[k]), zero-extended outside y.

    The full convolution of the needed span with conj(ref[::-1]), read at
    the lags: bit for bit ``fftconvolve(span, conj(ref[::-1]), mode="valid")``.
    """
    n = len(ref)
    lo = int(lags.min())
    hi = int(lags.max())
    # the span starts at lag lo; one that leaves y is a zero-extended copy
    # of the part inside it, so the lags that leave y read its zeros
    if 0 <= lo and hi + n <= y.shape[-1]:
        span = y[..., lo : hi + n]
    else:
        seg_lo = max(lo, 0)
        seg_hi = max(seg_lo, min(hi + n, y.shape[-1]))
        span = np.zeros(y.shape[:-1] + (hi + n - lo,), dtype=complex)
        span[..., seg_lo - lo : seg_hi - lo] = y[..., seg_lo:seg_hi]
    full = _fft_convolve(span, np.conj(ref[::-1]))
    # valid output j is full output j + n - 1
    return full[..., lags - lo + n - 1]


def _segment_corr(seg: np.ndarray, ref: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Correlation against an isolated record: zeros assumed outside seg."""
    c_full = np.correlate(seg, ref, mode="full")  # lags -(n-1)..len(seg)-1
    n = len(ref)
    out = np.zeros(len(lags), dtype=complex)
    idx = lags + (n - 1)
    ok = (idx >= 0) & (idx < len(c_full))
    out[ok] = c_full[idx[ok]]
    return out


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
